package prompt

// Fuzz target for the answer parser, the boundary where model output
// becomes labels: whatever a completion holds — prose, broken or hostile
// JSON, out-of-range or repeated question numbers — ParseAnswersAny must
// never panic, must return exactly n labels, and may label question i
// only when the completion answers i, and answers it one way. Seed
// corpora live in testdata/fuzz and run as plain test cases on every
// `go test`; CI adds a short -fuzz smoke on top.

import (
	"slices"
	"strconv"
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
// ParseAnswers must also agree, label for label, with refParseAnswers,
// the parser it replaced, which lowered and split the completion.
func FuzzParseAnswersAny(f *testing.F) {
	f.Add("Question 1: Yes\nQuestion 2: No\n", 2)
	f.Add("Question 2: Yes\nQuestion 2: No\n", 2)
	f.Add("Q1: yes, same product\nQ1: match\n3. No\nQuestion 9: Yes", 3)
	f.Add(`{"answers":[{"question":1,"match":true},{"question":1,"match":false},{"question":2,"match":false}]}`, 2)
	f.Add("Sure:\n"+`{"answers":[{"question":0,"match":true},{"question":-1,"match":false}]}`+"\nQuestion 1: Yes", 1)
	f.Add(`{"answers":[{"question":1,`+"\nQuestion 1: No\n", 1)
	f.Add("", 0)
	// Runes whose lower case differs from the byte-wise ASCII fold:
	// U+212A lowers to k, U+0130 to i (in "question" and "different"),
	// U+017F (long s) stays itself; plus mixed case, CRLF and invalid
	// UTF-8 before, inside and after the keywords.
	f.Add("Q1: D\u0130FFERENT\nQ2: \u212aind of a match\nQuest\u0130on 3: Yes\nQuest\u0130on4 no", 4)
	f.Add("QUESTION 1: \u017fame\nquestion 2: \u017f\nAnSwEr 3: YeS\na4) NoT\nq5 - MaTcH", 5)
	f.Add("Question 1: Yes\r\nQuestion 2: No\r\n\r\n3. Same\r", 3)
	f.Add("\xffQuestion 1: Yes\nQ\xff2: No\nQ3: \xffyes\nQ4: y\xffes\nA5: di\xc4fferent\nQ6: \xc4\xb0", 6)
	f.Add("Question 99999999999999999999: Yes\nQuestion 01: no\n  \t Q2 :\t-) MATCH  \n", 2)
	f.Fuzz(func(t *testing.T, completion string, n int) {
		n = int(uint(n) % 65)
		if got, want := ParseAnswers(completion, n), refParseAnswers(completion, n); !slices.Equal(got, want) {
			t.Fatalf("ParseAnswers(%q, %d) = %v, the lowering parser gives %v", completion, n, got, want)
		}
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

// refParseAnswers is ParseAnswers as it was before it walked the lines
// in place: it splits the completion and lowers each answer line, and
// it is kept verbatim as the fuzz oracle.
func refParseAnswers(completion string, n int) []entity.Label {
	out := unanswered(n)
	for _, raw := range strings.Split(completion, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		idx, rest, ok := refAnswerIndex(line)
		if !ok || idx < 1 || idx > n {
			continue
		}
		rest = strings.ToLower(strings.TrimLeft(rest, ":.-) \t"))
		switch {
		case strings.HasPrefix(rest, "yes") || strings.HasPrefix(rest, "match") || strings.HasPrefix(rest, "same"):
			answer(out, idx-1, entity.Match)
		case strings.HasPrefix(rest, "no") || strings.HasPrefix(rest, "different") || strings.HasPrefix(rest, "not"):
			answer(out, idx-1, entity.NonMatch)
		}
	}
	return settle(out)
}

// refAnswerIndex is answerIndex as refParseAnswers used it.
func refAnswerIndex(line string) (int, string, bool) {
	l := strings.ToLower(line)
	for _, prefix := range []string{"question ", "question", "answer ", "q", "a"} {
		if strings.HasPrefix(l, prefix) {
			l = l[len(prefix):]
			line = line[len(prefix):]
			break
		}
	}
	j := 0
	for j < len(l) && l[j] >= '0' && l[j] <= '9' {
		j++
	}
	if j == 0 {
		return 0, "", false
	}
	idx, err := strconv.Atoi(l[:j])
	if err != nil {
		return 0, "", false
	}
	return idx, line[j:], true
}
