package profile

import "testing"

// The allocation-regression suite: the one-shot kernels must allocate
// nothing per comparison in steady state. CI runs it without -race,
// where every listed test must pass, and again under -race.

func TestJaccardStringsAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose, so pooled builders are rebuilt")
	}
	// Warm the pooled builder's scratch and vocabulary, then comparisons
	// must be allocation-free. A GC can empty the pool mid-measurement,
	// so tolerate a fractional refill while still failing on any
	// per-call allocation (>= 1).
	x, y := "apple iphone 13 pro max 256gb graphite", "iphone 13 pro 256 gb graphite apple smartphone"
	JaccardStrings(x, y)
	if n := testing.AllocsPerRun(200, func() { JaccardStrings(x, y) }); n >= 1 {
		t.Errorf("JaccardStrings: %.1f allocs per call, want 0", n)
	}
}

func TestLevenshteinAllocsSteadyState(t *testing.T) {
	// Warm the row pool, then ASCII comparisons must be allocation-free.
	// A GC can empty the pool mid-measurement, so tolerate a fractional
	// refill while still failing on any per-call allocation (>= 1).
	LevenshteinRatioStrings("iphone 13 pro", "iphone 14 pro max")
	if n := testing.AllocsPerRun(200, func() { LevenshteinRatioStrings("iphone 13 pro", "iphone 14 pro max") }); n >= 1 {
		t.Errorf("ASCII LevenshteinRatioStrings: %.1f allocs per call, want 0", n)
	}
}

func TestLevenshteinScratchCap(t *testing.T) {
	small := &levScratch{rows: make([]int32, 2*maxLevScratch)}
	if !putLevRows(small) {
		t.Error("cap-sized scratch was dropped, want pooled")
	}
	big := &levScratch{rows: make([]int32, 2*maxLevScratch+2)}
	if putLevRows(big) {
		t.Error("oversized scratch was pooled, want dropped")
	}
	// End to end: a pathological comparison still succeeds, it just
	// doesn't poison the pool.
	long := make([]byte, maxLevScratch+100)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	want := 1 - float64(len(long)-3)/float64(len(long)+3)
	if r := LevenshteinRatioStrings(string(long), "abc"); r != want {
		t.Errorf("long-string ratio = %v, want %v (distance %d)", r, want, len(long)-3)
	}
}
