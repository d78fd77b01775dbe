package prompt

import (
	"reflect"
	"strings"
	"testing"

	"batcher/internal/entity"
)

func TestBuildWithFormatJSON(t *testing.T) {
	p := BuildWithFormat(DefaultTaskDescription, nil, []entity.Pair{samplePair(0), samplePair(1)}, JSONAnswers)
	if !WantsJSON(p.Text) {
		t.Error("JSON prompt not detected by WantsJSON")
	}
	if strings.Contains(p.Text, `"Question 1: Yes"`) {
		t.Error("text instruction should be replaced")
	}
	// Questions must still parse.
	parsed, err := Parse(p.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Questions) != 2 {
		t.Errorf("questions = %d", len(parsed.Questions))
	}
}

// TestBuildWithFormatJSONSwapsOnlyTheInstruction holds the JSON prompt
// to its definition: the text prompt with its closing instruction line
// replaced by the JSON one, and every other byte unchanged.
func TestBuildWithFormatJSONSwapsOnlyTheInstruction(t *testing.T) {
	demos := []Demo{{Pair: samplePair(7), Label: entity.Match}, {Pair: samplePair(8), Label: entity.NonMatch}}
	for _, n := range []int{0, 1, 3} {
		var qs []entity.Pair
		for i := range n {
			qs = append(qs, samplePair(byte(i)))
		}
		for _, ds := range [][]Demo{nil, demos} {
			text := Build(DefaultTaskDescription, ds, qs).Text
			lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
			lines[len(lines)-1] = jsonInstruction
			want := strings.Join(lines, "\n") + "\n"
			got := BuildWithFormat(DefaultTaskDescription, ds, qs, JSONAnswers)
			if got.Text != want {
				t.Errorf("%d questions, %d demos: JSON prompt\n%q\nwant\n%q", n, len(ds), got.Text, want)
			}
		}
	}
}

func TestBuildWithFormatTextDelegates(t *testing.T) {
	a := Build(DefaultTaskDescription, nil, []entity.Pair{samplePair(0)})
	b := BuildWithFormat(DefaultTaskDescription, nil, []entity.Pair{samplePair(0)}, TextAnswers)
	if a.Text != b.Text {
		t.Error("TextAnswers format should match Build output")
	}
}

func TestJSONAnswersRoundTrip(t *testing.T) {
	in := []entity.Label{entity.Match, entity.NonMatch, entity.Match}
	completion := FormatAnswersJSON(in)
	out := ParseAnswersAny(completion, 3)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("answer %d: %v != %v", i, in[i], out[i])
		}
	}
}

func TestParseAnswersAnyWithWrappedJSON(t *testing.T) {
	completion := "Sure! Here are my answers:\n" +
		`{"answers":[{"question":1,"match":false},{"question":2,"match":true}]}` +
		"\nLet me know if you need anything else."
	out := ParseAnswersAny(completion, 2)
	if out[0] != entity.NonMatch || out[1] != entity.Match {
		t.Errorf("wrapped JSON parsed to %v", out)
	}
}

func TestParseAnswersAnyFallsBackToText(t *testing.T) {
	out := ParseAnswersAny("Question 1: Yes\nQuestion 2: No\n", 2)
	if out[0] != entity.Match || out[1] != entity.NonMatch {
		t.Errorf("text fallback = %v", out)
	}
}

func TestParseAnswersAnyIgnoresOutOfRange(t *testing.T) {
	completion := `{"answers":[{"question":0,"match":true},{"question":9,"match":true},{"question":1,"match":true}]}`
	out := ParseAnswersAny(completion, 2)
	if out[0] != entity.Match {
		t.Errorf("valid answer lost: %v", out)
	}
	if out[1] != entity.Unknown {
		t.Errorf("out-of-range answers should not leak: %v", out)
	}
}

func TestParseAnswersAnyMalformedJSON(t *testing.T) {
	// Broken JSON with a parseable text line after it.
	completion := `{"answers":[{"question":1,` + "\nQuestion 1: No\n"
	out := ParseAnswersAny(completion, 1)
	if out[0] != entity.NonMatch {
		t.Errorf("malformed JSON should fall back to text: %v", out)
	}
}

// TestContradictoryAnswersAreUnknown: a question answered both Yes and No
// parses to Unknown on the text path and the JSON path, whichever answer
// comes last and whatever follows; agreeing repeats keep their label.
func TestContradictoryAnswersAreUnknown(t *testing.T) {
	U, M, N := entity.Unknown, entity.Match, entity.NonMatch
	for _, tc := range []struct {
		completion string
		want       []entity.Label
	}{
		{"Question 2: Yes\nQuestion 2: No", []entity.Label{U, U}},
		{"Question 1: No\nQuestion 1: Yes\nQuestion 2: No", []entity.Label{U, N}},
		{"Q1: yes\nQ1: no\nQ1: yes\n2. No", []entity.Label{U, N}},
		{"Question 1: Yes\nQ1: match\nA2: different\nQuestion 2: No", []entity.Label{M, N}},
		{`{"answers":[{"question":2,"match":true},{"question":1,"match":true},{"question":2,"match":false}]}`, []entity.Label{M, U}},
		{`{"answers":[{"question":1,"match":false},{"question":1,"match":false},{"question":1,"match":true},{"question":1,"match":false}]}`, []entity.Label{U, U}},
		{`{"answers":[{"question":1,"match":false},{"question":2,"match":true},{"question":1,"match":false}]}`, []entity.Label{N, M}},
	} {
		got := ParseAnswersAny(tc.completion, len(tc.want))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q parsed to %v, want %v", tc.completion, got, tc.want)
		}
	}
}

func TestExtractJSONSkipsDecoys(t *testing.T) {
	completion := `{"not":"answers"} {"answers":[{"question":1,"match":true}]}`
	doc, ok := extractJSON(completion)
	if !ok || len(doc.Answers) != 1 {
		t.Errorf("decoy object confused extraction: %+v %v", doc, ok)
	}
}

func TestWantsJSONNegative(t *testing.T) {
	p := Build(DefaultTaskDescription, nil, []entity.Pair{samplePair(0)})
	if WantsJSON(p.Text) {
		t.Error("text prompt misdetected as JSON")
	}
}
