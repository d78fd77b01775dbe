package strsim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// --- reference implementations: the classic map-based kernels ----------

// refTokenize is the tokenizer oracle: strings.FieldsFunc over the
// lowered text.
func refTokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

func refTokenSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, t := range refTokenize(s) {
		set[t] = true
	}
	return set
}

func refJaccard(a, b string) float64 {
	sa, sb := refTokenSet(a), refTokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func refLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	if len(rb) > len(ra) {
		ra, rb = rb, ra
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := prev[j] + 1
			if v := cur[j-1] + 1; v < d {
				d = v
			}
			if v := prev[j-1] + cost; v < d {
				d = v
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func refLevRatio(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	return 1 - float64(refLevenshtein(a, b))/float64(la+lb)
}

// --- generators --------------------------------------------------------

// randText produces adversarial mixed text: words, digits, punctuation,
// repeated tokens, non-ASCII runes, literal pad-like characters.
func randText(r *rand.Rand) string {
	alphabet := []string{
		"apple", "Apple", "iphone", "13", "pro", "max", "256gb", "café",
		"ü", "#", "-", " ", "  ", ",", "c#", "π≈3", "ß", "",
		"\x00", "A1", "a1", "ZZ",
	}
	n := r.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(alphabet[r.Intn(len(alphabet))])
		if r.Intn(2) == 0 {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// wordEdges are pattern lengths, in runes, on both sides of each 64-rune
// word boundary the Levenshtein kernel crosses, plus one beyond 4 096.
var wordEdges = []int{1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 4100}

// randRunes returns a string of exactly n runes drawn from alphabet. Its
// invalid UTF-8 entries are bytes that decode alone to U+FFFD wherever
// they stand, so the rune count holds.
func randRunes(r *rand.Rand, n int, alphabet []string) string {
	var b strings.Builder
	for range n {
		b.WriteString(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

// mutate applies about one random edit per ten runes of s, drawing
// inserted and substituted runes from alphabet.
func mutate(r *rand.Rand, s string, alphabet []string) string {
	rs := []rune(s)
	var b strings.Builder
	for _, c := range rs {
		switch r.Intn(30) {
		case 0: // delete
		case 1: // substitute
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		case 2: // insert
			b.WriteString(alphabet[r.Intn(len(alphabet))])
			b.WriteRune(c)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// --- equivalence properties --------------------------------------------

func TestKernelsMatchReferenceExactly(t *testing.T) {
	in := NewInterner()
	bld := NewBuilder(in)
	check := func(a, b string) {
		t.Helper()
		if got, want := LevenshteinRatio(a, b), refLevRatio(a, b); got != want {
			t.Fatalf("LevenshteinRatio(%q,%q) = %v, ref %v", a, b, got, want)
		}
		if got, want := Jaccard(a, b), refJaccard(a, b); got != want {
			t.Fatalf("Jaccard(%q,%q) = %v, ref %v", a, b, got, want)
		}
		for _, s := range []string{a, b} {
			if got, want := Tokenize(s), refTokenize(s); !slices.Equal(got, want) {
				t.Fatalf("Tokenize(%q) = %q, ref %q", s, got, want)
			}
			got := slices.Clone(bld.UniqueTokenIDs(s))
			var want []uint32
			for _, tok := range refTokenize(s) {
				want = append(want, in.internBytes([]byte(tok)))
			}
			slices.Sort(want)
			if want = slices.Compact(want); !slices.Equal(got, want) {
				t.Fatalf("UniqueTokenIDs(%q) = %v, interned ref tokens %v", s, got, want)
			}
		}
	}

	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		check(randText(r), randText(r))
	}

	cfg := &quick.Config{Rand: rand.New(rand.NewSource(12)), MaxCount: 500}
	if err := quick.Check(func(a, b string) bool { check(a, b); return true }, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b []byte) bool { check(string(a), string(b)); return true }, cfg); err != nil {
		t.Error(err)
	}

	// Both operand orders at every word boundary of the Levenshtein
	// kernel, on ASCII, non-ASCII, mixed and invalid UTF-8 operands,
	// the pattern and the text taken from each script in turn.
	scripts := [][]string{
		{"a", "b", "c", "e", " ", "1", "Z", "\x00", "\x7f"},
		{"é", "ß", "π", "≈", "ü", "中", "文", "\uFFFD", "\U0001F600"},
		{"a", "e", " ", "é", "ü", "中", "1"},
		{"\xff", "\xfe", "a", "é", "\uFFFD", " "},
	}
	for _, m := range wordEdges {
		for pi, ps := range scripts {
			for ti, ts := range scripts {
				if m > 4096 && pi != ti && pi != 0 && ti != 0 {
					continue // the oracle is quadratic: cross ASCII with each script only
				}
				pat := randRunes(r, m, ps)
				text := mutate(r, pat, ts)
				check(pat, text)
				check(text, pat)
				if m > 4096 {
					continue
				}
				for _, extra := range []int{0, 1, 37} {
					text := randRunes(r, m+extra, ts)
					check(pat, text)
					check(text, pat)
				}
			}
		}
	}

	long := strings.Repeat("Zebra 42 ", maxTokenScratch/4) // more token bytes than the pool retains
	hand := []string{
		"\xff\xfeabc\xc3", "a\xc3\x28b", "ok\xed\xa0\x80ok", // invalid UTF-8, incl. an encoded surrogate
		"İstanbul İ", "\u212Aelvin \u212A", "STRAẞE ẞ", // lowercase changes the byte length
		"a\u0085b", "a\u00a0b", // NEL and NBSP separate
		"0123456789 ٣٤٥ ①② 12ab34", // Nd digits join, No digits separate
		long,
	}
	for _, a := range hand {
		for _, b := range hand {
			if len(a) > maxTokenScratch && len(b) > maxTokenScratch {
				continue // the reference Levenshtein is quadratic
			}
			check(a, b)
		}
	}
}

// FuzzLevenshteinRatio holds LevenshteinRatio to the DP oracle on
// arbitrary operands, valid UTF-8 or not. Each input is also compared
// in concatenation, so short seeds reach the multi-word path too.
func FuzzLevenshteinRatio(f *testing.F) {
	f.Add("Here Comes the Fuzz", "Here Comes The Fuzz [Explicit]")
	f.Add("café ß", "cafe\xff ss")
	f.Add(strings.Repeat("abcdefgh", 8), strings.Repeat("abcdefgh", 8)+"x")
	f.Add(strings.Repeat("ÄÖÜ xyz ", 20), strings.Repeat("AOU xyz ", 21))
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, p := range [][2]string{{a, b}, {a + b, b + a + a}} {
			if got, want := LevenshteinRatio(p[0], p[1]), refLevRatio(p[0], p[1]); got != want {
				t.Fatalf("LevenshteinRatio(%q,%q) = %v, ref %v", p[0], p[1], got, want)
			}
		}
	})
}

// FuzzTokenize holds Tokenize and Jaccard to the FieldsFunc oracle on
// arbitrary text, valid UTF-8 or not.
func FuzzTokenize(f *testing.F) {
	f.Add("Here Comes The Fuzz [Explicit]", "here comes the fuzz")
	f.Add("RTX3050 v2.1", "rtx3050 V2 1")
	f.Add("\xffİ\u212A ẞ\u0085x\u00a0y", "i̇ k ß")
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := Tokenize(a), refTokenize(a); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, ref %q", a, got, want)
		}
		if got, want := Jaccard(a, b), refJaccard(a, b); got != want {
			t.Fatalf("Jaccard(%q,%q) = %v, ref %v", a, b, got, want)
		}
	})
}

func TestInternerConcurrentUse(t *testing.T) {
	in := NewInterner()
	done := make(chan [3]uint32, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			bld := NewBuilder(in)
			var last [3]uint32
			for i := 0; i < 500; i++ {
				copy(last[:], bld.UniqueTokenIDs("shared tokens appear everywhere"))
			}
			done <- last
		}(g)
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if got := <-done; got != first {
			t.Fatalf("interner IDs diverged across goroutines: %v vs %v", got, first)
		}
	}
}
