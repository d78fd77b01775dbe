package cluster

import "batcher/internal/feature"

// PairwisePercentile returns the p-th percentile of the m(m-1)/2
// pairwise distances among sample — Percentile of PairwiseDistances —
// together with that buffer, reordered, for a caller that needs another
// statistic of the same sample. It is the one calibration routine behind
// both percentile thresholds (DBSCAN's eps and the covering threshold),
// which differ only in how they draw sample. Fewer than two points have
// no pairwise distance: the result is (0, nil).
func PairwisePercentile(sample []feature.Vector, dist feature.Distance, p float64) (float64, []float64) {
	ds := PairwiseDistances(sample, dist)
	return Percentile(ds, p), ds
}

// PairwiseDistances returns dist(sample[i], sample[j]) for every i < j,
// in row order, in one exactly-sized buffer; nil for fewer than two
// points.
func PairwiseDistances(sample []feature.Vector, dist feature.Distance) []float64 {
	m := len(sample)
	if m < 2 {
		return nil
	}
	ds := make([]float64, m*(m-1)/2)
	n := 0
	for i, a := range sample {
		for _, b := range sample[i+1:] {
			ds[n] = dist(a, b)
			n++
		}
	}
	return ds
}

// Percentile reorders ds in place and returns its p-th percentile: the
// element a full ascending sort would leave at index int(p*(len-1)),
// with p clamped to [0,1] and a NaN p read as unset (0, the minimum) —
// it would otherwise pass both clamps and index with int(NaN). An empty
// ds yields 0.
//
// Only that one order statistic is needed, so it is found by in-place
// selection — O(len) — instead of an O(len log len) sort, and ds can be
// asked again for another percentile: an order statistic does not
// depend on the arrangement selection left behind.
func Percentile(ds []float64, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	if !(p > 0) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return selectKth(ds, int(p*float64(len(ds)-1)))
}

// selectInsertionMax is the range length at or below which selectKth
// finishes with an insertion sort instead of partitioning further.
const selectInsertionMax = 16

// selectKth reorders ds in place and returns the value sort.Float64s
// would leave at ds[k], for 0 <= k < len(ds). That value is well
// defined whatever the algorithm: it is the k-th smallest under the
// order sort.Float64s uses (NaN before every number, then <), and
// elements that order cannot tell apart — the duplicates of one value,
// -0 and +0 — compare == to each other, so any of them is the same
// threshold to every caller.
//
// Quickselect with a median-of-three pivot and a three-way partition:
// the run of elements equal to the pivot is excluded from both sides,
// so duplicate-heavy distance arrays (many identical pairs) shrink as
// fast as distinct ones. +Inf needs no special case under <.
func selectKth(ds []float64, k int) float64 {
	// NaNs first, as sort.Float64s orders them; the rest is totally
	// ordered by <.
	lo := 0
	for i, v := range ds {
		if v != v {
			ds[i], ds[lo] = ds[lo], ds[i]
			lo++
		}
	}
	if k < lo {
		return ds[k]
	}
	hi := len(ds) // ds[lo:hi] always holds the k-th element
	for hi-lo > selectInsertionMax {
		pivot := medianOfThree(ds[lo], ds[lo+(hi-lo)/2], ds[hi-1])
		// Invariant: ds[lo:lt] < pivot, ds[lt:i] == pivot, ds[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := ds[i]; {
			case v < pivot:
				ds[i], ds[lt] = ds[lt], v
				lt++
				i++
			case v > pivot:
				gt--
				ds[i], ds[gt] = ds[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return ds[k]
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[k]
}

// medianOfThree returns the middle of three non-NaN values.
func medianOfThree(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
