package strsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"batcher/internal/profile"
)

// levenshtein recovers the edit distance from LevenshteinRatio, the
// package's entry into the shared pooled DP: LR = 1 - d/(|a|+|b|) over
// rune lengths.
func levenshtein(a, b string) int {
	n := utf8.RuneCountInString(a) + utf8.RuneCountInString(b)
	return int(math.Round((1 - LevenshteinRatio(a, b)) * float64(n)))
}

// gramJaccard is the Jaccard similarity of the q-gram signatures
// profile.Builder.GramHashes computes for the q-gram blocker.
func gramJaccard(a, b string, q int) float64 {
	bld := profile.NewBuilder(profile.NewInterner(), q)
	ga := slices.Clone(bld.GramHashes(a))
	gb := bld.GramHashes(b)
	inter := 0
	for _, h := range ga {
		if _, ok := slices.BinarySearch(gb, h); ok {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
		{"book", "back", 2},
		{"listen", "silent", 4},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinUnicode(t *testing.T) {
	if got := levenshtein("café", "cafe"); got != 1 {
		t.Errorf("Levenshtein over runes = %d, want 1", got)
	}
}

func randString(r *rand.Rand, maxLen int) string {
	n := r.Intn(maxLen)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(6)) // small alphabet to force collisions
	}
	return string(b)
}

func TestLevenshteinProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a, b, c := randString(r, 12), randString(r, 12), randString(r, 12)
		dab, dba := levenshtein(a, b), levenshtein(b, a)
		if dab != dba {
			t.Fatalf("symmetry violated: d(%q,%q)=%d d(%q,%q)=%d", a, b, dab, b, a, dba)
		}
		if dab == 0 && a != b {
			t.Fatalf("identity of indiscernibles violated for %q,%q", a, b)
		}
		dac, dcb := levenshtein(a, c), levenshtein(c, b)
		if dab > dac+dcb {
			t.Fatalf("triangle inequality violated: d(%q,%q)=%d > %d+%d via %q", a, b, dab, dac, dcb, c)
		}
		la, lb := len(a), len(b)
		lo := la - lb
		if lo < 0 {
			lo = -lo
		}
		hi := la
		if lb > hi {
			hi = lb
		}
		if dab < lo || dab > hi {
			t.Fatalf("bounds violated: d(%q,%q)=%d not in [%d,%d]", a, b, dab, lo, hi)
		}
	}
}

func TestLevenshteinRatio(t *testing.T) {
	if got := LevenshteinRatio("", ""); got != 1 {
		t.Errorf("LR(empty,empty) = %v, want 1", got)
	}
	if got := LevenshteinRatio("abc", "abc"); got != 1 {
		t.Errorf("LR(same) = %v, want 1", got)
	}
	// Paper Section VI-G example: "listen" vs "silent" — LR penalizes
	// character order while set measures (character q=1 grams) do not.
	lr := LevenshteinRatio("listen", "silent")
	cg := gramJaccard("listen", "silent", 1)
	if lr >= cg {
		t.Errorf("expected LR (%v) < char-gram Jaccard (%v) for anagrams", lr, cg)
	}
	if lr <= 0.3 || lr >= 0.9 {
		t.Errorf("LR(listen,silent) = %v, want mid band", lr)
	}
}

func TestLevenshteinRatioRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		lr := LevenshteinRatio(a, b)
		return lr >= 0 && lr <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Here Comes The Fuzz [Explicit]")
	want := []string{"here", "comes", "the", "fuzz", "explicit"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeKeepsDigits(t *testing.T) {
	got := Tokenize("RTX3050 v2.1")
	want := []string{"rtx3050", "v2", "1"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"a b c", "a b c", 1},
		{"a b", "c d", 0},
		{"a b c d", "c d e f", 1.0 / 3.0},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); !close(got, c.want) {
			t.Errorf("Jaccard(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestJaccardSymmetricAndBounded(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		a := randString(r, 20) + " " + randString(r, 20)
		b := randString(r, 20) + " " + randString(r, 20)
		ab, ba := Jaccard(a, b), Jaccard(b, a)
		if !close(ab, ba) {
			t.Fatalf("Jaccard asymmetric on %q,%q", a, b)
		}
		if ab < 0 || ab > 1 {
			t.Fatalf("Jaccard out of range: %v", ab)
		}
	}
}

func TestQGrams(t *testing.T) {
	bld := profile.NewBuilder(profile.NewInterner(), 2)
	g := slices.Clone(bld.GramHashes("ab"))
	// Two padded boundary grams plus "ab", sorted and distinct.
	if len(g) != 3 || !slices.IsSorted(g) {
		t.Errorf("GramHashes(ab, q=2) = %v, want 3 sorted grams", g)
	}
	if got := bld.GramHashes("AB"); !slices.Equal(got, g) {
		t.Errorf("grams are case-sensitive: %v vs %v", got, g)
	}
}

func TestQGramsPanicsOnZeroQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GramHashes(q=0) did not panic")
		}
	}()
	profile.NewBuilder(profile.NewInterner(), 0).GramHashes("abc")
}

func TestQGramJaccardPadSentinelNotCollidable(t *testing.T) {
	// Regression for the '#' padding collision: a literal '#' in the
	// input used to merge with the pad sentinel and inflate the q-gram
	// overlap (the "ab#" and "ab" 3-gram sets scored 0.8). With the NUL
	// sentinel, '#' is an ordinary character.
	hash := gramJaccard("ab#", "ab", 3)
	plain := gramJaccard("abx", "ab", 3)
	if hash != plain {
		t.Errorf("literal '#' still treated as padding: sim(ab#,ab)=%v, sim(abx,ab)=%v", hash, plain)
	}
	if hash >= 0.5 {
		t.Errorf("pad collision inflation: sim(ab#,ab)=%v, want < 0.5", hash)
	}
	// "c#"-style inputs: identical strings still score 1, and '#' does
	// not buy extra similarity against the '#'-less form.
	if got := gramJaccard("c#", "c#", 2); got != 1 {
		t.Errorf("sim(c#,c#) = %v, want 1", got)
	}
	if cs, cx := gramJaccard("c#", "c", 2), gramJaccard("cx", "c", 2); cs != cx {
		t.Errorf("sim(c#,c)=%v differs from sim(cx,c)=%v", cs, cx)
	}
}

func TestPaperExampleFeatureValues(t *testing.T) {
	// Example 5 of the paper: LR("Rashi","Rashi") = 1 and the album/genre
	// similarities land in a mid band. We verify the exact title case and
	// the qualitative ordering of the other two.
	if got := LevenshteinRatio("Rashi", "Rashi"); !close(got, 1) {
		t.Errorf("LR identical titles = %v", got)
	}
	album := LevenshteinRatio("Here Comes the Fuzz", "Here Comes The Fuzz [Explicit]")
	genre := LevenshteinRatio("Dance,Music,Hip-Hop", "Music")
	if album <= genre {
		t.Errorf("expected album sim (%v) > genre sim (%v)", album, genre)
	}
	if album < 0.6 || album > 0.95 {
		t.Errorf("album sim = %v, want mid-high band", album)
	}
}

func BenchmarkLevenshteinRatio(b *testing.B) {
	x := "Here Comes the Fuzz"
	y := "Here Comes The Fuzz [Explicit]"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LevenshteinRatio(x, y)
	}
}

func BenchmarkJaccard(b *testing.B) {
	x := "apple iphone 13 pro max 256gb graphite"
	y := "iphone 13 pro 256 gb graphite apple smartphone"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Jaccard(x, y)
	}
}
