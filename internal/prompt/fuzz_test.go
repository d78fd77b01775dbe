package prompt

// Fuzz target for the answer parser, the boundary where model output
// becomes labels: whatever a completion holds — prose, broken or hostile
// JSON, out-of-range or repeated question numbers — ParseAnswersAny must
// never panic, must return exactly n labels, and may label question i
// only when the completion answers i, and answers it one way. Seed
// corpora live in testdata/fuzz and run as plain test cases on every
// `go test`; CI adds a short -fuzz smoke on top.

import (
	"strings"
	"testing"

	"batcher/internal/entity"
)

// FuzzParseAnswersAny parses a completion for n questions (n folded into
// [0, 64]) and checks the labels against what the completion says: the
// decoded answers array when ParseAnswersAny takes the JSON path, and
// otherwise each line parsed on its own, which is at most one answer.
// A label is Match or NonMatch exactly when the completion gives
// question i that answer and never the other one, and Unknown otherwise.
func FuzzParseAnswersAny(f *testing.F) {
	f.Add("Question 1: Yes\nQuestion 2: No\n", 2)
	f.Add("Question 2: Yes\nQuestion 2: No\n", 2)
	f.Add("Q1: yes, same product\nQ1: match\n3. No\nQuestion 9: Yes", 3)
	f.Add(`{"answers":[{"question":1,"match":true},{"question":1,"match":false},{"question":2,"match":false}]}`, 2)
	f.Add("Sure:\n"+`{"answers":[{"question":0,"match":true},{"question":-1,"match":false}]}`+"\nQuestion 1: Yes", 1)
	f.Add(`{"answers":[{"question":1,`+"\nQuestion 1: No\n", 1)
	f.Add("", 0)
	f.Fuzz(func(t *testing.T, completion string, n int) {
		n = int(uint(n) % 65)
		got := ParseAnswersAny(completion, n)
		if len(got) != n {
			t.Fatalf("%d labels for %d questions", len(got), n)
		}
		// said[i][l] records that the completion answers question i+1
		// with label l (0 NonMatch, 1 Match).
		said := make([][2]bool, n)
		if doc, ok := extractJSON(completion); ok {
			for _, a := range doc.Answers {
				if a.Question >= 1 && a.Question <= n {
					l := entity.NonMatch
					if a.Match {
						l = entity.Match
					}
					said[a.Question-1][l] = true
				}
			}
		} else {
			for _, line := range strings.Split(completion, "\n") {
				for i, l := range ParseAnswers(line, n) {
					if l != entity.Unknown {
						said[i][l] = true
					}
				}
			}
		}
		for i, l := range got {
			want := entity.Unknown
			switch said[i] {
			case [2]bool{true, false}:
				want = entity.NonMatch
			case [2]bool{false, true}:
				want = entity.Match
			}
			if l != want {
				t.Fatalf("question %d parsed to %v, want %v: the completion answers it NonMatch %v, Match %v",
					i+1, l, want, said[i][entity.NonMatch], said[i][entity.Match])
			}
		}
	})
}
