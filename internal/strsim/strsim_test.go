package strsim

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// levenshtein recovers the edit distance from LevenshteinRatio, the
// package's entry into the bit-parallel kernel: LR = 1 - d/(|a|+|b|)
// over rune lengths.
func levenshtein(a, b string) int {
	n := utf8.RuneCountInString(a) + utf8.RuneCountInString(b)
	return int(math.Round((1 - LevenshteinRatio(a, b)) * float64(n)))
}

// charJaccard is the Jaccard similarity of two strings' distinct
// lowered runes: a set measure blind to character order.
func charJaccard(a, b string) float64 {
	sa, sb := map[rune]bool{}, map[rune]bool{}
	for _, r := range strings.ToLower(a) {
		sa[r] = true
	}
	for _, r := range strings.ToLower(b) {
		sb[r] = true
	}
	inter := 0
	for r := range sa {
		if sb[r] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
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
	cg := charJaccard("listen", "silent")
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

// BenchmarkLevenshteinRatio times one comparison per pattern length:
// the shorter operand has exactly n runes (one word up to 64, two at 65
// and 90, five at 300), the other is a title-shaped edit of it.
func BenchmarkLevenshteinRatio(b *testing.B) {
	const title = "Here Comes the Fuzz [Explicit] - Mark Ronson feat. Jack White, Nate Dogg & Saigon; "
	const accented = "Café Müller, Straße № 5 — Señor Niño à Zürich; "
	bench := func(name, text string, n int) {
		rs := []rune(strings.Repeat(text, 1+n/len(text)))[:n]
		x := string(rs)
		y := strings.ToUpper(string(rs[:n/3])) + string(rs[n/3:]) + " (Remastered)"
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				LevenshteinRatio(x, y)
			}
		})
	}
	for _, n := range []int{8, 31, 64, 65, 90, 300} {
		bench("ascii-"+strconv.Itoa(n), title, n)
	}
	bench("nonascii-31", accented, 31)
}

func BenchmarkJaccard(b *testing.B) {
	x := "apple iphone 13 pro max 256gb graphite"
	y := "iphone 13 pro 256 gb graphite apple smartphone"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Jaccard(x, y)
	}
}
