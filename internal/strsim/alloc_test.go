package strsim

import (
	"strings"
	"testing"
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
	// Warm the row pool, then ASCII comparisons must be allocation-free.
	// A GC can empty the pool mid-measurement, so tolerate a fractional
	// refill while still failing on any per-call allocation (>= 1).
	LevenshteinRatio("iphone 13 pro", "iphone 14 pro max")
	if n := testing.AllocsPerRun(200, func() { LevenshteinRatio("iphone 13 pro", "iphone 14 pro max") }); n >= 1 {
		t.Errorf("ASCII LevenshteinRatio: %.1f allocs per call, want 0", n)
	}
}

func TestLevenshteinScratchCap(t *testing.T) {
	// A pathological comparison still succeeds, it just doesn't poison
	// the pool: the next loans are all within the cap.
	long := make([]byte, maxLevScratch+100)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	want := 1 - float64(len(long)-3)/float64(len(long)+3)
	if r := LevenshteinRatio(string(long), "abc"); r != want {
		t.Errorf("long-string ratio = %v, want %v (distance %d)", r, want, len(long)-3)
	}
	if r := LevenshteinRatio(string(long), string(long[1:])); r != 1-1/float64(2*len(long)-1) {
		t.Errorf("long-vs-long ratio = %v, want distance 1", r)
	}
	for range 8 {
		if rows := levPool.Get().(*[]int32); cap(*rows) > 2*maxLevScratch {
			t.Fatalf("pool holds a %d-cell scratch, cap is %d", cap(*rows), 2*maxLevScratch)
		}
	}
	if raceEnabled {
		return // sync.Pool drops items at random under -race
	}
	// Cap-width rows are retained: the loan after a comparison whose
	// shorter operand fills the cap is that comparison's scratch.
	edge := string(long[:maxLevScratch-1])
	LevenshteinRatio(edge+"x", edge)
	if rows := levPool.Get().(*[]int32); cap(*rows) != 2*maxLevScratch {
		t.Errorf("cap-width scratch: next loan has %d cells, want the %d-cell scratch back", cap(*rows), 2*maxLevScratch)
	}
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
