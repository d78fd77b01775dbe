package prompt

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/tokens"
)

// Tokens returns the token count of the prompt text, as the tests
// measure prompts.
func (p Prompt) Tokens() int { return tokens.Count(p.Text) }

func rec(id string, kv ...string) entity.Record {
	var attrs, vals []string
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, kv[i])
		vals = append(vals, kv[i+1])
	}
	return entity.NewRecord(id, attrs, vals)
}

func samplePair(i byte) entity.Pair {
	return entity.Pair{
		A: rec("a", "title", "iphone-1"+string('0'+i), "id", "025"+string('0'+i)),
		B: rec("b", "title", "iphone-1"+string('0'+i+1), "id", ""),
	}
}

// SerializeEntity renders one record for prompt embedding:
// "attr1: val1 ; attr2: val2". Newlines in values are flattened to spaces
// so one entity always occupies one line.
//
// It is the concatenating serializer writeEntity replaced, kept with
// concatBuild as the oracle Build must agree with.
func SerializeEntity(r entity.Record) string {
	var b strings.Builder
	for i, a := range r.Attrs {
		if i > 0 {
			b.WriteString(attrSep)
		}
		b.WriteString(a)
		b.WriteString(": ")
		b.WriteString(strings.ReplaceAll(r.Values[i], "\n", " "))
	}
	return b.String()
}

// concatBuild is the concatenating Build the one-buffer builder
// replaced, kept as its oracle: the two must agree to the byte.
func concatBuild(desc string, demos []Demo, questions []entity.Pair) Prompt {
	var b strings.Builder
	b.WriteString(desc)
	b.WriteString("\n")
	if len(demos) > 0 {
		b.WriteString("\nExamples:\n")
		for i, d := range demos {
			fmt.Fprintf(&b, "Example %d:\n", i+1)
			b.WriteString("Entity A: " + SerializeEntity(d.Pair.A) + "\n")
			b.WriteString("Entity B: " + SerializeEntity(d.Pair.B) + "\n")
			if d.Label == entity.Match {
				b.WriteString("Answer: Yes, they refer to the same entity.\n")
			} else {
				b.WriteString("Answer: No, they refer to different entities.\n")
			}
		}
	}
	b.WriteString("\nQuestions:\n")
	for i, q := range questions {
		fmt.Fprintf(&b, "Question %d:\n", i+1)
		b.WriteString("Entity A: " + SerializeEntity(q.A) + "\n")
		b.WriteString("Entity B: " + SerializeEntity(q.B) + "\n")
	}
	if len(questions) == 1 {
		b.WriteString("\nAnswer with a single line: \"Question 1: Yes\" or \"Question 1: No\".\n")
	} else {
		fmt.Fprintf(&b, "\nFor each of Question 1 through Question %d, answer on its own line "+
			"in the form \"Question i: Yes\" or \"Question i: No\".\n", len(questions))
	}
	return Prompt{Text: b.String()}
}

// mapValues returns pairs with every attribute value replaced by f of it.
func mapValues(pairs []entity.Pair, f func(string) string) []entity.Pair {
	rec := func(r entity.Record) entity.Record {
		vals := make([]string, len(r.Values))
		for i, v := range r.Values {
			vals[i] = f(v)
		}
		return entity.NewRecord(r.ID, r.Attrs, vals)
	}
	out := make([]entity.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = entity.Pair{A: rec(p.A), B: rec(p.B), Truth: p.Truth}
	}
	return out
}

// demosOf labels pairs with their truth as demonstrations.
func demosOf(pairs []entity.Pair) []Demo {
	out := make([]Demo, len(pairs))
	for i, p := range pairs {
		out[i] = Demo{Pair: p, Label: p.Truth}
	}
	return out
}

func TestBuildMatchesConcatOracle(t *testing.T) {
	values := map[string]func(string) string{
		"as generated": func(v string) string { return v },
		"newline": func(v string) string {
			return v[:len(v)/2] + "\n" + v[len(v)/2:]
		},
		"double newline": func(v string) string { return "\n\n" + v + "\n\n" + v + "\n" },
		"empty":          func(string) string { return "" },
	}
	for _, name := range datagen.Names() {
		d, err := datagen.GenerateByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for vname, f := range values {
			pairs := mapValues(d.Pairs[:16], f)
			for _, nd := range []int{0, 1, 8} {
				for _, nq := range []int{1, 8} {
					demos, qs := demosOf(pairs[8:8+nd]), pairs[:nq]
					got := Build(DefaultTaskDescription, demos, qs).Text
					if want := concatBuild(DefaultTaskDescription, demos, qs).Text; got != want {
						t.Errorf("%s, values %s, %d demos, %d questions:\n%q\nwant\n%q",
							name, vname, nd, nq, got, want)
					}
				}
			}
		}
	}
}

// batchInputs returns the inputs of a recorded-size batch prompt: 8
// datagen questions and 8 demonstrations.
func batchInputs(t testing.TB) ([]Demo, []entity.Pair) {
	d, err := datagen.GenerateByName("WA", 1)
	if err != nil {
		t.Fatal(err)
	}
	return demosOf(d.Pairs[8:16]), d.Pairs[:8]
}

func TestBuildAllocsOne(t *testing.T) {
	demos, qs := batchInputs(t)
	allocs := testing.AllocsPerRun(100, func() { Build(DefaultTaskDescription, demos, qs) })
	if allocs > 1 {
		t.Errorf("Build made %v allocations per call, want at most 1", allocs)
	}
}

func TestSerializeEntityRoundTrip(t *testing.T) {
	r := rec("x", "title", "Here Comes the Fuzz [Explicit]", "genre", "Dance,Music,Hip-Hop", "id", "")
	line := SerializeEntity(r)
	got, err := ParseEntity(line)
	if err != nil {
		t.Fatalf("ParseEntity(%q): %v", line, err)
	}
	if len(got.Attrs) != 3 {
		t.Fatalf("round trip attrs = %v", got.Attrs)
	}
	for i := range r.Attrs {
		if got.Attrs[i] != r.Attrs[i] || got.Values[i] != r.Values[i] {
			t.Errorf("attr %d: got %q=%q, want %q=%q", i, got.Attrs[i], got.Values[i], r.Attrs[i], r.Values[i])
		}
	}
}

func TestSerializeEntityFlattensNewlines(t *testing.T) {
	r := rec("x", "desc", "line1\nline2")
	line := SerializeEntity(r)
	if strings.Contains(line, "\n") {
		t.Errorf("serialized entity contains newline: %q", line)
	}
}

func TestParseEntityErrors(t *testing.T) {
	if _, err := ParseEntity(""); err == nil {
		t.Error("empty line should error")
	}
	if _, err := ParseEntity("no separator here"); err == nil {
		t.Error("malformed attribute should error")
	}
}

func TestBuildStandardPrompt(t *testing.T) {
	p := Build(DefaultTaskDescription, nil, []entity.Pair{samplePair(0)})
	if parsed, err := Parse(p.Text); err != nil || len(parsed.Questions) != 1 {
		t.Errorf("Parse = %+v, %v; want 1 question", parsed, err)
	}
	if !strings.Contains(p.Text, "Question 1:") {
		t.Error("missing question header")
	}
	if strings.Contains(p.Text, "Examples:") {
		t.Error("zero-demo prompt should not have Examples block")
	}
	if !strings.Contains(p.Text, `"Question 1: Yes"`) {
		t.Error("missing single-question answer instruction")
	}
}

func TestBuildBatchPrompt(t *testing.T) {
	demos := []Demo{
		{Pair: samplePair(1), Label: entity.Match},
		{Pair: samplePair(2), Label: entity.NonMatch},
	}
	qs := []entity.Pair{samplePair(3), samplePair(4), samplePair(5)}
	p := Build(DefaultTaskDescription, demos, qs)
	if parsed, err := Parse(p.Text); err != nil || len(parsed.Questions) != 3 {
		t.Errorf("Parse = %+v, %v; want 3 questions", parsed, err)
	}
	for _, want := range []string{"Example 1:", "Example 2:", "Question 1:", "Question 3:",
		"Answer: Yes", "Answer: No", "Question 1 through Question 3"} {
		if !strings.Contains(p.Text, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
}

func TestBatchPromptSharesDemonstrations(t *testing.T) {
	// The whole point of batch prompting: tokens grow sublinearly in the
	// number of questions because demos and description are shared.
	demos := []Demo{{Pair: samplePair(1), Label: entity.Match}}
	single := Build(DefaultTaskDescription, demos, []entity.Pair{samplePair(2)})
	batch8 := Build(DefaultTaskDescription, demos, []entity.Pair{
		samplePair(2), samplePair(3), samplePair(4), samplePair(5),
		samplePair(6), samplePair(7), samplePair(8), samplePair(2),
	})
	if batch8.Tokens() >= 8*single.Tokens() {
		t.Errorf("batch of 8 (%d tokens) should cost less than 8 singles (%d)",
			batch8.Tokens(), 8*single.Tokens())
	}
	// The saving must be substantial (paper reports 4x-7x).
	perQuestionBatch := float64(batch8.Tokens()) / 8
	perQuestionSingle := float64(single.Tokens())
	if ratio := perQuestionSingle / perQuestionBatch; ratio < 2 {
		t.Errorf("per-question token ratio = %.2f, want >= 2", ratio)
	}
}

func TestParseRoundTrip(t *testing.T) {
	demos := []Demo{
		{Pair: samplePair(1), Label: entity.Match},
		{Pair: samplePair(2), Label: entity.NonMatch},
	}
	qs := []entity.Pair{samplePair(3), samplePair(4)}
	p := Build(DefaultTaskDescription, demos, qs)
	parsed, err := Parse(p.Text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(parsed.Demos) != 2 {
		t.Fatalf("parsed %d demos, want 2", len(parsed.Demos))
	}
	if parsed.Demos[0].Label != entity.Match || parsed.Demos[1].Label != entity.NonMatch {
		t.Error("demo labels lost in round trip")
	}
	if len(parsed.Questions) != 2 {
		t.Fatalf("parsed %d questions, want 2", len(parsed.Questions))
	}
	wantTitle, _ := qs[0].A.Get("title")
	gotTitle, _ := parsed.Questions[0].A.Get("title")
	if wantTitle != gotTitle {
		t.Errorf("question title = %q, want %q", gotTitle, wantTitle)
	}
}

func TestParseCommaValuesSurvive(t *testing.T) {
	q := entity.Pair{
		A: rec("a", "genre", "Dance,Music,Hip-Hop", "album", "FOUR"),
		B: rec("b", "genre", "Pop, Music", "album", "Take Me Home"),
	}
	p := Build(DefaultTaskDescription, nil, []entity.Pair{q})
	parsed, err := Parse(p.Text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got, _ := parsed.Questions[0].A.Get("genre")
	if got != "Dance,Music,Hip-Hop" {
		t.Errorf("comma value corrupted: %q", got)
	}
	got, _ = parsed.Questions[0].B.Get("genre")
	if got != "Pop, Music" {
		t.Errorf("comma value corrupted: %q", got)
	}
}

func TestParseNoQuestions(t *testing.T) {
	if _, err := Parse("just some text\n"); err == nil {
		t.Error("Parse without questions should error")
	}
}

// formatAnswers renders a completion answering the questions with the
// given labels, in the canonical reply format: the oracle the round-trip
// tests parse back.
func formatAnswers(labels []entity.Label) string {
	var b strings.Builder
	for i, l := range labels {
		if l == entity.Match {
			fmt.Fprintf(&b, "Question %d: Yes\n", i+1)
		} else {
			fmt.Fprintf(&b, "Question %d: No\n", i+1)
		}
	}
	return b.String()
}

func TestFormatAnswers(t *testing.T) {
	s := formatAnswers([]entity.Label{entity.Match, entity.NonMatch})
	want := "Question 1: Yes\nQuestion 2: No\n"
	if s != want {
		t.Errorf("formatAnswers = %q, want %q", s, want)
	}
}

func TestParseAnswersCanonical(t *testing.T) {
	labels := ParseAnswers("Question 1: Yes\nQuestion 2: No\n", 2)
	if labels[0] != entity.Match || labels[1] != entity.NonMatch {
		t.Errorf("ParseAnswers = %v", labels)
	}
}

func TestParseAnswersVariants(t *testing.T) {
	completion := strings.Join([]string{
		"Q1: yes, they are the same product",
		"2. No",
		"A3: No, because the titles differ.",
		"question 4: MATCH",
		"Q5 - different entities", // no colon, still has index then text
	}, "\n")
	labels := ParseAnswers(completion, 5)
	want := []entity.Label{entity.Match, entity.NonMatch, entity.NonMatch, entity.Match, entity.NonMatch}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("answer %d = %v, want %v", i+1, labels[i], want[i])
		}
	}
}

func TestParseAnswersMissingAndJunk(t *testing.T) {
	labels := ParseAnswers("Question 2: Yes\ncompletely unrelated line\n", 3)
	if labels[0] != entity.Unknown || labels[2] != entity.Unknown {
		t.Errorf("missing answers should be Unknown: %v", labels)
	}
	if labels[1] != entity.Match {
		t.Errorf("answer 2 = %v", labels[1])
	}
}

func TestParseAnswersOutOfRangeIndex(t *testing.T) {
	labels := ParseAnswers("Question 9: Yes\nQuestion 0: No\n", 2)
	for i, l := range labels {
		if l != entity.Unknown {
			t.Errorf("answer %d = %v, want Unknown", i+1, l)
		}
	}
}

func TestParseAnswersEmptyCompletion(t *testing.T) {
	labels := ParseAnswers("", 3)
	for _, l := range labels {
		if l != entity.Unknown {
			t.Error("empty completion should parse to all Unknown")
		}
	}
}

// TestParseAnswersAllocsOne pins ParseAnswers to one allocation, the
// label slice: it walks the lines in place and lowers nothing.
func TestParseAnswersAllocsOne(t *testing.T) {
	completion := "Question 1: Yes\nQ2: no, they differ\nANSWER 3: MATCH\r\n4. Different\n\nQuestion 5: not sure\n"
	allocs := testing.AllocsPerRun(100, func() { ParseAnswers(completion, 5) })
	if allocs > 1 {
		t.Errorf("ParseAnswers made %v allocations per call, want 1 (the labels)", allocs)
	}
}

// TestParseAnswersLowersLikeToLower: U+0130 lowers to i, so it spells
// "different"; U+212A lowers to k and long s (U+017F) stays itself.
func TestParseAnswersLowersLikeToLower(t *testing.T) {
	got := ParseAnswers("Q1: D\u0130FFERENT\nQ2: \u017fame\nQuest\u0130on 3: Yes\nQ4: \u212aeep", 4)
	want := []entity.Label{entity.NonMatch, entity.Unknown, entity.Unknown, entity.Unknown}
	if !slices.Equal(got, want) {
		t.Errorf("ParseAnswers = %v, want %v", got, want)
	}
}

func TestRoundTripAnswers(t *testing.T) {
	in := []entity.Label{entity.Match, entity.NonMatch, entity.Match, entity.Match}
	out := ParseAnswers(formatAnswers(in), len(in))
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("answer round trip mismatch at %d", i)
		}
	}
}

func TestPromptTokensPositive(t *testing.T) {
	p := Build(DefaultTaskDescription, nil, []entity.Pair{samplePair(0)})
	if p.Tokens() <= 10 {
		t.Errorf("Tokens = %d, implausibly small", p.Tokens())
	}
}

func BenchmarkBuildBatch(b *testing.B) {
	demos := make([]Demo, 8)
	for i := range demos {
		demos[i] = Demo{Pair: samplePair(byte(i)), Label: entity.Label(i % 2)}
	}
	qs := make([]entity.Pair, 8)
	for i := range qs {
		qs[i] = samplePair(byte(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(DefaultTaskDescription, demos, qs)
	}
}

func BenchmarkParse(b *testing.B) {
	demos := make([]Demo, 8)
	for i := range demos {
		demos[i] = Demo{Pair: samplePair(byte(i)), Label: entity.Label(i % 2)}
	}
	qs := make([]entity.Pair, 8)
	for i := range qs {
		qs[i] = samplePair(byte(i))
	}
	p := Build(DefaultTaskDescription, demos, qs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(p.Text); err != nil {
			b.Fatal(err)
		}
	}
}
