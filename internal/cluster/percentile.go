package cluster

import "batcher/internal/feature"

// PairwisePercentile returns the p-th percentile (p clamped to [0,1])
// of the m(m-1)/2 pairwise distances among sample: the element a full
// ascending sort of those distances would leave at index
// int(p*(len-1)). It is the one calibration routine behind both
// percentile thresholds (DBSCAN's eps and the covering threshold), which
// differ only in how they draw sample.
//
// Only that one order statistic is needed, so the distances are written
// into an exactly-sized buffer and the element is found by in-place
// selection — O(m^2) after the O(m^2) dist calls — instead of an
// O(m^2 log m) sort. The buffer is returned, reordered, for a caller
// that needs another statistic of the same sample. Fewer than two
// points have no pairwise distance: the result is (0, nil).
func PairwisePercentile(sample []feature.Vector, dist feature.Distance, p float64) (float64, []float64) {
	m := len(sample)
	if m < 2 {
		return 0, nil
	}
	ds := make([]float64, m*(m-1)/2)
	n := 0
	for i, a := range sample {
		for _, b := range sample[i+1:] {
			ds[n] = dist(a, b)
			n++
		}
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return selectKth(ds, int(p*float64(len(ds)-1))), ds
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
