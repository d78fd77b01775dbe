package prompt

import (
	"reflect"
	"testing"

	"batcher/internal/entity"
)

// TestJSONAnswersRoundTrip: a bare JSON reply, as a model answering in
// JSON unasked writes it, parses to one label per question.
func TestJSONAnswersRoundTrip(t *testing.T) {
	completion := `{"answers":[{"question":1,"match":true},{"question":2,"match":false},{"question":3,"match":true}]}`
	want := []entity.Label{entity.Match, entity.NonMatch, entity.Match}
	if out := ParseAnswersAny(completion, 3); !reflect.DeepEqual(out, want) {
		t.Errorf("parsed %v, want %v", out, want)
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
