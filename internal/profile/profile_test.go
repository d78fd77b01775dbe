package profile

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// --- reference implementations: the classic map-based kernels ----------

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

// --- equivalence properties --------------------------------------------

func TestKernelsMatchReferenceExactly(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b := randText(r), randText(r)
		if got, want := LevenshteinRatioStrings(a, b), refLevRatio(a, b); got != want {
			t.Fatalf("LevenshteinRatioStrings(%q,%q) = %v, ref %v", a, b, got, want)
		}
		if got, want := JaccardStrings(a, b), refJaccard(a, b); got != want {
			t.Fatalf("JaccardStrings(%q,%q) = %v, ref %v", a, b, got, want)
		}
	}
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

func TestScratchReleaseCapsVocabulary(t *testing.T) {
	b := Scratch()
	if !b.retainable() {
		t.Error("fresh scratch builder not retainable")
	}
	for i := 0; b.Interner().Len() <= maxPooledVocab; i++ {
		b.UniqueTokenIDs(tokenName(i))
	}
	if b.retainable() {
		t.Error("oversized scratch builder still retainable")
	}
	b.Release() // must drop, not pool
	if nb := NewBuilder(NewInterner()); nb.retainable() {
		t.Error("non-pooled builder claims retainable")
	}
}

func tokenName(i int) string {
	return "tok" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)) + string(rune('a'+(i/17576)%26))
}
