package profile

import "testing"

// The allocation-regression suite: the merge kernels must be zero-alloc
// per comparison and profile construction must stay within a small
// constant number of allocations. CI runs these under -race so a kernel
// regression fails the build.

func allocProfiles() (*Profile, *Profile) {
	in := NewInterner()
	bld := NewBuilder(in)
	pa := bld.Build("apple iphone 13 pro max 256gb graphite")
	pb := bld.Build("iphone 13 pro 256 gb graphite apple smartphone")
	return pa, pb
}

func TestKernelAllocsZero(t *testing.T) {
	pa, pb := allocProfiles()
	if n := testing.AllocsPerRun(200, func() { Jaccard(pa, pb) }); n != 0 {
		t.Errorf("Jaccard: %.1f allocs per comparison, want 0", n)
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

func TestBuildAllocsBounded(t *testing.T) {
	in := NewInterner()
	bld := NewBuilder(in)
	text := "apple iphone 13 pro max 256gb graphite smartphone"
	bld.Build(text) // intern the vocabulary once
	// Steady state: one profile struct plus its own slices (seq, tokens,
	// freq, grams). The bound is deliberately loose against runtime
	// size-class noise while still catching an accidental per-token or
	// per-gram allocation (which would show up as ~10x).
	const maxAllocs = 8
	if n := testing.AllocsPerRun(100, func() { bld.Build(text) }); n > maxAllocs {
		t.Errorf("Build: %.1f allocs per profile, want <= %d", n, maxAllocs)
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
