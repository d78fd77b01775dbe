package strsim

import (
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// The allocation-regression suite: the kernels must allocate nothing
// per comparison in steady state, and their pools must never retain
// scratch above the size caps. CI runs it without -race, where every
// listed test must pass, and again under -race.

func TestJaccardStringsAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose, so pooled scratch is rebuilt")
	}
	// Warm the pooled token scratch, then comparisons must be
	// allocation-free. A GC can empty the pool mid-measurement, so
	// tolerate a fractional refill while still failing on any per-call
	// allocation (>= 1).
	x, y := "apple iphone 13 pro max 256gb graphite", "iphone 13 pro 256 gb graphite apple smartphone"
	Jaccard(x, y)
	if n := testing.AllocsPerRun(200, func() { Jaccard(x, y) }); n >= 1 {
		t.Errorf("Jaccard: %.1f allocs per call, want 0", n)
	}
}

func TestLevenshteinAllocsSteadyState(t *testing.T) {
	// Warm the scratch pool, then ASCII comparisons must be
	// allocation-free, with a one-word and a multi-word pattern. A GC
	// (or -race, which drops a quarter of the pool's Puts) can empty the
	// pool mid-measurement; a refill costs the scratch and its buffer,
	// so tolerate a fractional refill while still failing on any
	// per-call allocation (>= 1).
	title := strings.Repeat("iphone 13 pro max 256gb graphite ", 10)
	cases := []struct{ name, a, b string }{
		{"one-word ASCII", "iphone 13 pro", "iphone 14 pro max"},
		{"multi-word ASCII", title[:90], title[3:300]},
	}
	if !raceEnabled { // a non-ASCII refill also grows the key slice
		cases = append(cases, struct{ name, a, b string }{"non-ASCII", "Café Müller, Straße № 5", "Cafe Muller Strasse No 5"})
	}
	for _, tc := range cases {
		LevenshteinRatio(tc.a, tc.b)
		if n := testing.AllocsPerRun(200, func() { LevenshteinRatio(tc.a, tc.b) }); n >= 1 {
			t.Errorf("%s LevenshteinRatio: %.1f allocs per call, want 0", tc.name, n)
		}
	}
}

func TestLevenshteinScratchCap(t *testing.T) {
	// The widest pattern whose mask buffer the pool keeps: 128 byte
	// rows, the zero row and two delta vectors of 32 words fill
	// maxLevScratch.
	const widest = maxLevScratch / (utf8.RuneSelf + 3) * 64
	long := make([]byte, widest+100)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	// A pathological comparison still succeeds, it just doesn't poison
	// the pool: the next loans are all within the cap and zeroed.
	want := 1 - float64(len(long)-3)/float64(len(long)+3)
	if r := LevenshteinRatio(string(long), "abc"); r != want {
		t.Errorf("long-string ratio = %v, want %v (distance %d)", r, want, len(long)-3)
	}
	if r := LevenshteinRatio(string(long), string(long[1:])); r != 1-1/float64(2*len(long)-1) {
		t.Errorf("long-vs-long ratio = %v, want distance 1", r)
	}
	wide := strings.Repeat("é", widest+1) // 33 words
	if r := LevenshteinRatio(wide+"x", wide); r != 1-1/float64(2*(widest+1)+1) {
		t.Errorf("long non-ASCII ratio = %v, want distance 1", r)
	}
	zero := func(s *levScratch) {
		t.Helper()
		if i := slices.IndexFunc(s.buf[:cap(s.buf)], func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("pooled mask buffer word %d is %#x, want it zero between calls", i, s.buf[i])
		}
	}
	for range 8 {
		s := levPool.Get().(*levScratch)
		if cap(s.buf) > maxLevScratch {
			t.Fatalf("pool holds a %d-word mask buffer, cap is %d", cap(s.buf), maxLevScratch)
		}
		zero(s)
	}
	if raceEnabled {
		return // sync.Pool drops items at random under -race
	}
	// Cap-size buffers are retained, zeroed: the loan after a comparison
	// whose shorter operand is the widest kept pattern is that
	// comparison's scratch.
	edge := string(long[:widest])
	LevenshteinRatio(edge+"x", edge)
	s := levPool.Get().(*levScratch)
	if cap(s.buf) != maxLevScratch {
		t.Fatalf("cap-size scratch: next loan has a %d-word buffer, want the %d-word buffer back", cap(s.buf), maxLevScratch)
	}
	zero(s)
}

func TestScratchReleaseCapsVocabulary(t *testing.T) {
	// A pathological Jaccard input — more token bytes than the pool
	// retains — is still compared exactly, and leaves no over-cap
	// scratch in the Jaccard pool.
	var b strings.Builder
	for i := 0; b.Len() <= 2*maxTokenScratch; i++ { // 7 of every 8 bytes are token bytes
		b.WriteString(tokenName(i))
		b.WriteByte(' ')
	}
	big, small := b.String(), tokenName(0)+" "+tokenName(1)+" other"
	if got, want := Jaccard(big, small), refJaccard(big, small); got != want || got == 0 {
		t.Errorf("Jaccard over a %d-byte value = %v, ref %v", len(big), got, want)
	}
	for range 8 {
		if s := jaccardPool.Get().(*tokenScratch); cap(s.buf) > maxTokenScratch {
			t.Fatalf("pool holds a %d-byte token buffer, cap is %d", cap(s.buf), maxTokenScratch)
		}
	}
}

func tokenName(i int) string {
	return "tok" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)) + string(rune('a'+(i/17576)%26))
}
