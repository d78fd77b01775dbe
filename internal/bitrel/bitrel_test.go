package bitrel

import (
	"slices"
	"testing"
)

// TestSharedReadsLikeItsExpandedCopy: a relation whose rows share
// storage answers Row, Has, Counts and Restrict as the relation that
// stores every row on its own, on widths around the word boundary and
// with no columns at all.
func TestSharedReadsLikeItsExpandedCopy(t *testing.T) {
	rowOf := []int32{0, 1, 0, 2, 1, 1, 0}
	first := []int{0, 1, 3} // the first row of each class
	for _, cols := range []int{0, 1, 63, 64, 65, 130} {
		shared := Shared(rowOf, 3, cols)
		full := New(len(rowOf), cols)
		for c := range 3 {
			for j := c; j < cols; j += 2 + c {
				// Writing the first row of a class writes every member's.
				shared.Row(first[c])[j>>6] |= 1 << (j & 63)
			}
		}
		for i, c := range rowOf {
			for j := int(c); j < cols; j += 2 + int(c) {
				full.Row(i)[j>>6] |= 1 << (j & 63)
			}
		}
		if shared.Len() != len(rowOf) || shared.Cols() != cols {
			t.Fatalf("cols=%d: shared is %d x %d", cols, shared.Len(), shared.Cols())
		}
		for i := range rowOf {
			if !slices.Equal(shared.Row(i), full.Row(i)) {
				t.Fatalf("cols=%d: row %d is %x, expanded %x", cols, i, shared.Row(i), full.Row(i))
			}
			for j := range cols {
				if shared.Has(i, j) != full.Has(i, j) {
					t.Fatalf("cols=%d: Has(%d, %d) = %v, expanded %v", cols, i, j, shared.Has(i, j), full.Has(i, j))
				}
			}
		}
		if got, want := shared.Counts(nil), full.Counts([]int{9, 9, 9}); !slices.Equal(got, want) || len(got) != len(rowOf) {
			t.Fatalf("cols=%d: Counts %v, expanded %v", cols, got, want)
		}
		// Restrict to listed rows and columns, repeats and any order
		// included, reads the same cells from either.
		pick := []int{6, 3, 0, 3}
		var at []int
		for j := cols - 1; j >= 0; j -= 3 {
			at = append(at, j, j)
		}
		// A reused dst (stale bits, another shape, shared storage) reads
		// as a fresh one.
		stale := Shared([]int32{0, 0}, 1, 200)
		stale.Row(0)[1] = ^uint64(0)
		for _, tc := range []struct{ r, dst *Rel }{{shared, new(Rel)}, {full, new(Rel)}, {shared, stale}, {full, stale}} {
			sub := tc.r.Restrict(tc.dst, pick, at)
			if sub.Len() != len(pick) || sub.Cols() != len(at) {
				t.Fatalf("cols=%d: Restrict is %d x %d, want %d x %d", cols, sub.Len(), sub.Cols(), len(pick), len(at))
			}
			for a, i := range pick {
				for b, j := range at {
					if sub.Has(a, b) != full.Has(i, j) {
						t.Fatalf("cols=%d: Restrict cell (%d,%d) = %v, cell (%d,%d) is %v", cols, a, b, sub.Has(a, b), i, j, full.Has(i, j))
					}
				}
			}
		}
	}
}
