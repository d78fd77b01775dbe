package profile

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"

	"batcher/internal/entity"
)

func recordOf(id string, attrs, values []string) entity.Record {
	return entity.NewRecord(id, attrs, values)
}

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

// refQGrams builds literal gram sets over the lowered runes with the
// non-collidable sentinel, the semantics the hashed signatures encode.
func refQGrams(s string, q int) map[string]bool {
	pad := strings.Repeat("\x00", q-1)
	rs := []rune(pad + strings.ToLower(s) + pad)
	set := make(map[string]bool)
	for i := 0; i+q <= len(rs); i++ {
		set[string(rs[i:i+q])] = true
	}
	return set
}

func refQGramJaccard(a, b string, q int) float64 {
	sa, sb := refQGrams(a, q), refQGrams(b, q)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for g := range sa {
		if sb[g] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
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

// gramJaccard is the Jaccard similarity of two strings' q-gram
// signatures as Builder.GramHashes computes them for the q-gram blocker.
func gramJaccard(bld *Builder, a, b string) float64 {
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

func TestKernelsMatchReferenceExactly(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := NewInterner()
	bld := NewBuilder(in, 3)
	for i := 0; i < 2000; i++ {
		a, b := randText(r), randText(r)
		pa, pb := bld.Build(a), bld.Build(b)
		if got, want := Jaccard(pa, pb), refJaccard(a, b); got != want {
			t.Fatalf("Jaccard(%q,%q) = %v, ref %v", a, b, got, want)
		}
		if got, want := gramJaccard(bld, a, b), refQGramJaccard(a, b, 3); got != want {
			t.Fatalf("GramHashes Jaccard(%q,%q) = %v, ref %v", a, b, got, want)
		}
		if got, want := LevenshteinRatioStrings(a, b), refLevRatio(a, b); got != want {
			t.Fatalf("LevenshteinRatioStrings(%q,%q) = %v, ref %v", a, b, got, want)
		}
		if got, want := JaccardStrings(a, b), refJaccard(a, b); got != want {
			t.Fatalf("JaccardStrings(%q,%q) = %v, ref %v", a, b, got, want)
		}
	}
}

func TestKernelsQ1Empty(t *testing.T) {
	// At q = 1 there is no padding, so the empty string has no grams
	// at all and a one-rune string exactly one.
	bld := NewBuilder(NewInterner(), 1)
	if g := bld.GramHashes(""); len(g) != 0 {
		t.Errorf("GramHashes(empty, q=1) = %v, want none", g)
	}
	if g := bld.GramHashes("a"); len(g) != 1 {
		t.Errorf("GramHashes(a, q=1) = %v, want one gram", g)
	}
}

func TestGramSentinelDoesNotCollide(t *testing.T) {
	bld := NewBuilder(NewInterner(), 3)
	// A trailing literal '#' must behave like any ordinary character:
	// with the classic '#' pad it would merge with the padding and
	// inflate overlap ("ab#" vs "ab" scored 0.8); with the \x00 pad it
	// scores the same as any other appended character.
	withHash := gramJaccard(bld, "ab#", "ab")
	withX := gramJaccard(bld, "abx", "ab")
	if withHash != withX {
		t.Errorf("literal '#' still special: sim(ab#,ab)=%v, sim(abx,ab)=%v", withHash, withX)
	}
	if withHash >= 0.5 {
		t.Errorf("pad collision inflation: sim(ab#,ab)=%v, want < 0.5", withHash)
	}
	// "c#" vs "c" likewise must not be inflated past "cx" vs "c".
	cs := gramJaccard(bld, "c#", "c")
	cx := gramJaccard(bld, "cx", "c")
	if cs != cx {
		t.Errorf("sim(c#,c)=%v differs from sim(cx,c)=%v", cs, cx)
	}
	// Identity still holds.
	if got := gramJaccard(bld, "c#", "c#"); got != 1 {
		t.Errorf("sim(c#,c#)=%v, want 1", got)
	}
}

func TestDifferentInternersPanic(t *testing.T) {
	pa := NewBuilder(NewInterner(), 0).Build("a")
	pb := NewBuilder(NewInterner(), 0).Build("a")
	defer func() {
		if recover() == nil {
			t.Error("comparing cross-interner profiles did not panic")
		}
	}()
	Jaccard(pa, pb)
}

func TestInternerConcurrentUse(t *testing.T) {
	in := NewInterner()
	done := make(chan [3]uint32, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			bld := NewBuilder(in, 2)
			var last [3]uint32
			for i := 0; i < 500; i++ {
				p := bld.Build("shared tokens appear everywhere")
				copy(last[:], p.tokens)
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

func TestEntityProfiles(t *testing.T) {
	in := NewInterner()
	bld := NewBuilder(in, 0)
	r := recordOf("a1", []string{"title", "price"}, []string{"Apple iPhone 13", "999"})
	e := BuildEntity(bld, r, EntityOpts{Attrs: true, Serialized: true})
	p, ok := e.Attr("title")
	if !ok || !slices.Equal(p.tokens, bld.UniqueTokenIDs("Apple iPhone 13")) {
		t.Fatalf("Attr(title) = %v, %v", p, ok)
	}
	if _, ok := e.Attr("missing"); ok {
		t.Error("Attr(missing) reported present")
	}
	// Serialized tokens must equal tokenize("title: Apple iPhone 13, price: 999").
	want := refTokenize("title: Apple iPhone 13, price: 999")
	got := e.SerialTokens()
	if len(got) != len(want) {
		t.Fatalf("SerialTokens len = %d, want %d (%v)", len(got), len(want), want)
	}
	for i, id := range got {
		if got := in.info(id).text; got != want[i] {
			t.Errorf("serial token %d = %q, want %q", i, got, want[i])
		}
	}
}

func TestScratchReleaseCapsVocabulary(t *testing.T) {
	b := Scratch(2)
	if b.q != 2 {
		t.Errorf("Scratch gram size = %d, want 2", b.q)
	}
	if !b.retainable() {
		t.Error("fresh scratch builder not retainable")
	}
	for i := 0; b.Interner().Len() <= maxPooledVocab; i++ {
		b.Build(tokenName(i))
	}
	if b.retainable() {
		t.Error("oversized scratch builder still retainable")
	}
	b.Release() // must drop, not pool
	if nb := NewBuilder(NewInterner(), 0); nb.retainable() {
		t.Error("non-pooled builder claims retainable")
	}
}

func tokenName(i int) string {
	return "tok" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)) + string(rune('a'+(i/17576)%26))
}
