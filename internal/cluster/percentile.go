package cluster

import (
	"math"

	"batcher/internal/feature"
	"batcher/internal/workpool"
)

// PairwiseDistances returns dist(sample[i], sample[j]) for every i < j,
// in row order, in one exactly-sized buffer; nil for fewer than two
// points. Row i starts at pairRowStart(len(sample), i).
//
// The rows are measured across workpool workers, one task per row, so
// dist must be safe for concurrent calls. Each task writes only its own
// row, so the buffer does not depend on how the tasks were scheduled.
func PairwiseDistances(sample []feature.Vector, dist feature.Distance) []float64 {
	m := len(sample)
	if m < 2 {
		return nil
	}
	ds := make([]float64, m*(m-1)/2)
	workpool.For(workpool.Workers(), m-1, func(i int) {
		a, row := sample[i], ds[pairRowStart(m, i):pairRowStart(m, i+1)]
		for k, b := range sample[i+1:] {
			row[k] = dist(a, b)
		}
	})
	return ds
}

// pairRowStart is the index of dist(i, i+1) in an m-point
// PairwiseDistances buffer: rows 0..i-1 hold m-1, m-2, …, m-i distances.
func pairRowStart(m, i int) int { return i * (2*m - i - 1) / 2 }

// Percentile returns the p-th percentile of ds: the element a full
// ascending sort would leave at index int(p*(len-1)), with p clamped to
// [0,1] and a NaN p read as unset (0, the minimum) — it would otherwise
// pass both clamps and index with int(NaN). An empty ds yields 0.
//
// ds is only read, never reordered, so one buffer can be asked for
// several percentiles and then read for something else. Only the one
// order statistic is needed, so it is found by selection — O(len) —
// instead of an O(len log len) sort, and on a large buffer the selection
// runs on a copy of the few values near rank k only (bracketKth).
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
	return orderStat(ds, int(p*float64(len(ds)-1)))
}

// orderStat returns the value sort.Float64s would leave at ds[k], for
// 0 <= k < len(ds), and leaves ds as it was.
func orderStat(ds []float64, k int) float64 {
	if v, ok := bracketKth(ds, k); ok {
		return v
	}
	return selectKth(append([]float64(nil), ds...), k)
}

const (
	// bracketSample is the number of evenly strided values bracketKth
	// estimates rank k from. Selection costs about the same per value in
	// the sample and in the bracket, and a larger sample narrows the
	// bracket: 4 096 balances the two at a 512-point window's 130 816
	// distances.
	bracketSample = 4096
	// bracketMinLen is the buffer length below which bracketKth declines,
	// so the sample never exceeds a quarter of the buffer.
	bracketMinLen = 4 * bracketSample
)

// bracketKth returns, without writing ds, the value sort.Float64s would
// leave at ds[k] — or ok=false, and the caller selects from a full copy.
//
// A deterministic strided sample of bracketSample values gives two
// bounds lo <= hi that rank k very likely falls between. One counting
// pass over ds counts the values below lo and copies out those in
// [lo, hi]; if k lands inside that bracket, the answer is the bracket's
// order statistic k - below, selected from the small copy. Exactness
// does not depend on the sample: every value below lo sorts before every
// bracket value, which sorts before every value above hi, whatever lo
// and hi are. The sample only decides how small the bracket is and
// whether k is in it.
//
// It declines for buffers shorter than bracketMinLen, for a buffer that
// holds a NaN (its place in the order is not a < comparison), and when
// the bracket misses k — a sample that is not representative, such as
// values periodic in the stride, costs time, never exactness.
func bracketKth(ds []float64, k int) (v float64, ok bool) {
	n := len(ds)
	if n < bracketMinLen {
		return 0, false
	}
	stride := n / bracketSample
	var sample [bracketSample]float64
	for i := range sample {
		sample[i] = ds[i*stride]
	}
	// Rank k of ds sits near rank r of the sample, give or take the
	// spread of a sample rank: about sqrt(s·q·(1−q)) for q = r/s. Three
	// of those plus a constant make a miss rare on any ordinary buffer.
	r := k * bracketSample / n
	q := float64(r) / bracketSample
	spread := int(3*math.Sqrt(bracketSample*q*(1-q))) + 8
	// hi first: selection leaves the sample's hiRank smallest values in
	// sample[:hiRank], and lo is the smaller selection among those.
	lo, hi := math.Inf(-1), math.Inf(1)
	hiRank := bracketSample
	if r+spread < bracketSample {
		hiRank = r + spread
		hi = selectKth(sample[:], hiRank)
	}
	if r-spread >= 0 {
		lo = selectKth(sample[:hiRank], r-spread)
	}
	if lo != lo || hi != hi {
		return 0, false // a NaN among the samples
	}
	below := 0
	bracket := make([]float64, 0, (2*spread+1)*stride)
	for _, d := range ds {
		// Most distances lie above a low percentile's bracket: one
		// well-predicted comparison dismisses them.
		if d > hi {
			continue
		}
		if d < lo {
			below++
			continue
		}
		if d != d {
			return 0, false
		}
		bracket = append(bracket, d)
	}
	if k < below || k >= below+len(bracket) {
		return 0, false
	}
	return selectKth(bracket, k-below), true
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
