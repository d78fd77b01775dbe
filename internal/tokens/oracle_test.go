package tokens_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/prompt"
	"batcher/internal/tokens"
)

// handCases are the strings where a piece-free meter is most likely to
// part from the piece-building one: bytes that are not UTF-8, letters
// whose lowercase has another byte length, run boundaries, words past
// Count's stack buffer, and the non-ASCII spaces.
var handCases = []string{
	"", " ", "\t\n\v\f\r",
	// Invalid UTF-8: stray continuation bytes, a truncated sequence, an
	// encoded surrogate, an overlong encoding, bytes inside a word.
	"\xff", "\x80\x80\x80", "caf\xc3", "\xed\xa0\x80", "\xc0\xaf", "abc\xffdef", "ab\x80cd\x80\x80ef",
	// Lowercase shrinks (İ → i, Kelvin sign → k, ẞ → ß) or grows (Ⱥ → ⱥ).
	"\u0130", "\u0130stanbul", "\u212a", "\u212aelvinometer", "STRA\u1e9eE", "\u1e9e\u1e9e\u1e9e",
	"\u023a", "\u023a\u023a", "\u023a\u023a\u023a\u023a\u023a\u023a", "\u00c9COLE", "\u00d1a\u00f1o", "\u00f1and\u00fa",
	// Digit runs of 1 to 7, broken by letters, punctuation and other
	// scripts' digits.
	"1", "12", "123", "1234", "12345", "123456", "1234567",
	"12a345", "1,234,567", "999.00", "\u0661\u0662\u0663\u0664", "v2.0.17-rc3",
	// Mixed punctuation runs.
	".", "..", "...", "....", "!?-", "a--b", "(--)", ".,;:!?", "$$$", "a.1.b", "--12--", "\u00ab\u00bb", "\u2010\u2012\u2013\u2014",
	// Words at and past the 4-byte rule, in the vocabulary and not.
	"the", "them", "theme", "deduplication", "deduplications", "unconventional", "zxqvwkjhgf",
	// Words longer than Count's stack buffer.
	strings.Repeat("abcdefghij", 10),
	strings.Repeat("deduplication", 8),
	strings.Repeat("\u00e9", 50),
	strings.Repeat("\u0130", 70),
	// U+0085 and U+00A0 separate words; U+200B does not (it is Cf).
	"a\u0085b", "the\u00a0and", "12\u00a034", "..\u0085..", "ab\u200bcd",
	"title: Apple iPhone 13 Pro, price: 999.00 [SEP] title: iPhone 13 Pro Max, price: 1099.00",
}

// checkCount fails t when Count and the Split oracle disagree on s.
func checkCount(t *testing.T, c *tokens.Counter, s string) {
	t.Helper()
	if got, want := c.Count(s), len(c.Split(s)); got != want {
		t.Errorf("Count(%q) = %d, len(Split) = %d (pieces %q)", s, got, want, c.Split(s))
	}
}

// recorder keeps the prompt and completion of every call it passes on.
type recorder struct {
	llm.Client
	mu    sync.Mutex
	texts []string
}

func (r *recorder) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	resp, err := r.Client.Complete(ctx, req)
	r.mu.Lock()
	r.texts = append(r.texts, req.Prompt, resp.Completion)
	r.mu.Unlock()
	return resp, err
}

// simulatedTexts returns every prompt and completion of a small run of
// the default design point on dataset name, in text or JSON answers.
func simulatedTexts(t *testing.T, name string, jsonAnswers bool) []string {
	t.Helper()
	d, err := datagen.GenerateByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	split := entity.SplitPairs(d.Pairs)
	qs, pool := split.Test[:min(16, len(split.Test))], split.Train[:min(120, len(split.Train))]
	all := append(append([]entity.Pair(nil), qs...), pool...)
	rec := &recorder{Client: llm.NewSimulated(llm.BuildOracle(all), 1)}
	f := core.NewFromConfig(rec, core.Config{
		Batching: core.DiversityBatching, Selection: core.CoveringSelection, Seed: 1, JSONAnswers: jsonAnswers,
	})
	if _, err := f.Resolve(context.Background(), qs, pool); err != nil {
		t.Fatal(err)
	}
	return rec.texts
}

func TestCountMatchesSplitOracle(t *testing.T) {
	c := tokens.NewCounter()
	t.Run("hand", func(t *testing.T) {
		for _, s := range handCases {
			checkCount(t, c, s)
		}
	})
	t.Run("quick", func(t *testing.T) {
		agree := func(s string) bool { return c.Count(s) == len(c.Split(s)) }
		if err := quick.Check(agree, &quick.Config{MaxCount: 2000}); err != nil {
			t.Error("runes:", err)
		}
		bytesAgree := func(b []byte) bool { return agree(string(b)) }
		if err := quick.Check(bytesAgree, &quick.Config{MaxCount: 2000}); err != nil {
			t.Error("bytes:", err)
		}
	})
	t.Run("simulated", func(t *testing.T) {
		for _, name := range datagen.Names() {
			for _, jsonAnswers := range []bool{false, true} {
				texts := simulatedTexts(t, name, jsonAnswers)
				if len(texts) == 0 {
					t.Fatalf("%s: the run sent no prompt", name)
				}
				for _, s := range texts {
					checkCount(t, c, s)
				}
			}
		}
	})
}

func FuzzCount(f *testing.F) {
	for _, s := range handCases {
		f.Add(s)
	}
	c := tokens.NewCounter()
	f.Fuzz(func(t *testing.T, s string) { checkCount(t, c, s) })
}

// batchPrompt is a prompt of the size a recorded run sends: 8 datagen
// questions and 4 demonstrations.
func batchPrompt(t testing.TB) string {
	d, err := datagen.GenerateByName("WA", 1)
	if err != nil {
		t.Fatal(err)
	}
	demos := make([]prompt.Demo, 4)
	for i := range demos {
		demos[i] = prompt.Demo{Pair: d.Pairs[8+i], Label: d.Pairs[8+i].Truth}
	}
	return prompt.Build(prompt.DefaultTaskDescription, demos, d.Pairs[:8]).Text
}

func TestCountAllocsZero(t *testing.T) {
	s := batchPrompt(t)
	c := tokens.NewCounter()
	if allocs := testing.AllocsPerRun(100, func() { c.Count(s) }); allocs != 0 {
		t.Errorf("Count of a %d-byte prompt: %v allocations per call, want 0", len(s), allocs)
	}
}
