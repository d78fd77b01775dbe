package tokens

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestCountEmpty(t *testing.T) {
	if got := Count(""); got != 0 {
		t.Errorf("Count(empty) = %d, want 0", got)
	}
	if got := Count("   \t\n"); got != 0 {
		t.Errorf("Count(whitespace) = %d, want 0", got)
	}
}

func TestCountShortWordsOneToken(t *testing.T) {
	for _, w := range []string{"a", "an", "the", "cat", "is"} {
		if got := Count(w); got != 1 {
			t.Errorf("Count(%q) = %d, want 1", w, got)
		}
	}
}

func TestCountVocabWordsOneToken(t *testing.T) {
	for _, w := range []string{"matching", "question", "entity", "manufacturer"} {
		if got := Count(w); got != 1 {
			t.Errorf("Count(%q) = %d, want 1 (in vocab)", w, got)
		}
	}
}

func TestCountLongUnknownWordSplits(t *testing.T) {
	got := Count("zxqvwkjhgf")
	if got < 2 || got > 4 {
		t.Errorf("Count(long unknown) = %d, want 2-4 pieces", got)
	}
}

func TestCountSentenceBand(t *testing.T) {
	// ~60 words should land near the paper's ~90 token estimate for an
	// entity pair (the 0.75 words/token heuristic), within a loose band.
	words := make([]string, 60)
	sample := []string{"title", "apple", "iphone", "smartphone", "graphite",
		"storage", "display", "retina", "camera", "battery"}
	for i := range words {
		words[i] = sample[i%len(sample)]
	}
	got := Count(strings.Join(words, " "))
	if got < 60 || got > 130 {
		t.Errorf("Count(60 words) = %d, want within [60, 130]", got)
	}
}

func TestCountMonotonicUnderConcat(t *testing.T) {
	f := func(a, b string) bool {
		// Concatenation with a space never yields fewer tokens than the
		// larger part alone.
		whole := Count(a + " " + b)
		ca, cb := Count(a), Count(b)
		return whole >= ca && whole >= cb && whole <= ca+cb+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountDigitsGroup(t *testing.T) {
	// 6 digits should be 2 tokens (runs of 3), not 6.
	if got := Count("123456"); got != 2 {
		t.Errorf("Count(123456) = %d, want 2", got)
	}
	if got := Count("12"); got != 1 {
		t.Errorf("Count(12) = %d, want 1", got)
	}
}

func TestCountPunctuation(t *testing.T) {
	if got := Count("..."); got != 2 {
		t.Errorf("Count(...) = %d, want 2", got)
	}
	if got := Count(","); got != 1 {
		t.Errorf("Count(,) = %d, want 1", got)
	}
}

func TestCountDeterministic(t *testing.T) {
	s := "title: Apple iPhone 13 Pro, price: 999.00 [SEP] title: iPhone 13 Pro Max, price: 1099.00"
	a, b := Count(s), Count(s)
	if a != b {
		t.Errorf("Count not deterministic: %d vs %d", a, b)
	}
	if a < 15 || a > 45 {
		t.Errorf("Count(pair line) = %d, expected realistic band [15,45]", a)
	}
}

// Split segments s into subword tokens. Words are segmented by greedy
// longest-match against the vocabulary with single-character fallback
// capped so that a word of length L yields at most ceil(L/4)+1 pieces on
// vocabulary misses (matching BPE behaviour on unknown words: chunks, not
// one token per character). Punctuation and digits group into small runs.
//
// It is the piece-building segmenter Count replaced, kept as the oracle
// Count must agree with: Count(s) == len(Split(s)).
func (c *Counter) Split(s string) []string {
	var out []string
	var word []rune
	flush := func() {
		if len(word) > 0 {
			out = append(out, c.splitWord(string(word))...)
			word = word[:0]
		}
	}
	runLen := 0
	var runKind int // 0 none, 1 digit, 2 punct
	flushRun := func() { runLen, runKind = 0, 0 }
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			flushRun()
			word = append(word, unicode.ToLower(r))
		case unicode.IsDigit(r):
			flush()
			// Digits group in runs of up to 3 per token, like GPT BPE.
			if runKind != 1 || runLen == 3 {
				out = append(out, "<num>")
				runKind, runLen = 1, 0
			}
			runLen++
		case unicode.IsSpace(r):
			flush()
			flushRun()
		default:
			flush()
			// Punctuation: each run of identical class counts once per
			// two characters.
			if runKind != 2 || runLen == 2 {
				out = append(out, "<punct>")
				runKind, runLen = 2, 0
			}
			runLen++
		}
	}
	flush()
	return out
}

// maxPiece is the longest vocabulary entry, bounding splitWord's scan.
var maxPiece = func() int {
	n := 0
	for _, p := range defaultVocab {
		n = max(n, len(p))
	}
	return n
}()

// splitWord greedily segments a lowercase word against the vocabulary.
func (c *Counter) splitWord(w string) []string {
	if len(w) <= 4 || c.vocab[w] {
		return []string{w}
	}
	var pieces []string
	i := 0
	for i < len(w) {
		matched := ""
		maxLen := len(w) - i
		if maxLen > maxPiece {
			maxLen = maxPiece
		}
		for l := maxLen; l >= 2; l-- {
			if c.vocab[w[i:i+l]] {
				matched = w[i : i+l]
				break
			}
		}
		if matched == "" {
			// Fallback: take a chunk of up to 5 characters, emulating BPE
			// byte-fallback grouping rather than per-character explosion.
			l := 5
			if l > len(w)-i {
				l = len(w) - i
			}
			matched = w[i : i+l]
		}
		pieces = append(pieces, matched)
		i += len(matched)
	}
	return pieces
}

func TestSplitReassemblesLetters(t *testing.T) {
	c := NewCounter()
	pieces := c.Split("unconventional")
	joined := strings.Join(pieces, "")
	if joined != "unconventional" {
		t.Errorf("Split pieces %v reassemble to %q", pieces, joined)
	}
}

func BenchmarkCount(b *testing.B) {
	s := strings.Repeat("title: Apple iPhone 13 Pro Max 256GB graphite smartphone, price: 1099.00 ", 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(s)
	}
}
