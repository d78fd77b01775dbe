package cluster

import (
	"iter"
	"math"
	"slices"

	"batcher/internal/bitrel"
	"batcher/internal/feature"
	"batcher/internal/workpool"
)

// Distances is a point set's pairwise distances, measured once per
// unordered pair of distinct values. The points are grouped by exact
// value (see valueClasses) into U classes, and d holds dist(r_a, r_b) of
// the classes' first points for every a <= b: U(U+1)/2 calls for n
// points, n(n+1)/2 when all are distinct.
//
// That is the whole multiset of the n(n-1)/2 distances between two of
// the points, because a feature.Distance is a function of the bits of
// its two vectors and symmetric to the bit: a pair of classes a < b
// stands for the |a|·|b| pairs of their members, and dist(r_a, r_a) for
// the |a|(|a|-1)/2 pairs inside class a. The weights come from the class
// sizes when they are needed and are never stored per pair. A class of
// one point has weight 0 on its diagonal, which is therefore no distance
// of the set (CosineDistance puts the zero vector at 1 from itself).
type Distances struct {
	vc valueClasses
	// reps holds every class's first point, or is the points themselves
	// when every point is its own class.
	reps []feature.Vector
	// size[c] is the number of points in class c.
	size []int
	// d is row-major over the class pairs a <= b: row a starts at
	// classRowStart(U, a) and holds d(a,a), d(a,a+1), …, d(a,U-1).
	d []float64
}

// Measure groups the points by value and measures the U(U+1)/2
// distances of their classes across workpool workers, one task per
// class row, so dist must be safe for concurrent calls. Each task writes
// only its own row, so the buffer does not depend on how the tasks were
// scheduled.
func Measure(points []feature.Vector, dist feature.Distance) *Distances {
	vc := groupByValue(points)
	u := len(vc.first)
	ds := &Distances{vc: vc, reps: points, size: make([]int, u), d: make([]float64, u*(u+1)/2)}
	for _, c := range vc.of {
		ds.size[c]++
	}
	if u < len(points) {
		ds.reps = vc.reps(points)
	}
	workpool.For(workpool.Workers(), u, func(a int) {
		r, row := ds.reps[a], ds.d[classRowStart(u, a):classRowStart(u, a+1)]
		for k, b := range ds.reps[a:] {
			row[k] = dist(r, b)
		}
	})
	return ds
}

// classRowStart is the index of d(a, a) in a U-class buffer: rows
// 0..a-1 hold U, U-1, …, U-a+1 distances.
func classRowStart(u, a int) int { return a * (2*u - a + 1) / 2 }

// pairs is the number of distances in the set, n(n-1)/2 for n points.
func (ds *Distances) pairs() int {
	n := len(ds.vc.of)
	return n * (n - 1) / 2
}

// All yields every distance of the set once per class pair, with the
// number of point pairs at that distance. Class pairs that stand for no
// pair of points (a class of one point and itself) are skipped, so the
// counts add up to n(n-1)/2.
func (ds *Distances) All() iter.Seq2[float64, int] {
	return func(yield func(float64, int) bool) {
		u := len(ds.size)
		for a, sa := range ds.size {
			row := ds.d[classRowStart(u, a):classRowStart(u, a+1)]
			if w := sa * (sa - 1) / 2; w > 0 && !yield(row[0], w) {
				return
			}
			for k, sb := range ds.size[a+1:] {
				if !yield(row[k+1], sa*sb) {
					return
				}
			}
		}
	}
}

// Sweep is the package Sweep over the measured points: the same
// relations, one stored row per class, with every distance read from
// the buffer instead of measured again.
func (ds *Distances) Sweep(eps float64, within bool, t float64, below bool) (withinRows, belowRows *bitrel.Rel) {
	return sweepClasses(&ds.vc, ds.reps, nil, ds.d, eps, within, t, below)
}

// Percentiles returns the p-th percentile of the n(n-1)/2 distances for
// each p of ps: the element a full ascending sort (sort.Float64s: NaN
// first) of the expanded set would leave at index int(p*(n(n-1)/2-1)),
// with p clamped to [0,1] and a NaN p read as unset (0, the minimum) —
// it would otherwise pass both clamps and index with int(NaN). Fewer
// than two points have no distance and yield 0.
//
// The buffer is only read, so one Distances can be asked for
// percentiles and then swept. Only the asked order statistics are
// needed, so they are found by weighted selection over the class pairs
// — O(U²) — and on a large buffer from one pass that copies out only
// the class pairs near the asked ranks (bracket), for every p at once.
func (ds *Distances) Percentiles(ps ...float64) []float64 {
	total := ds.pairs()
	if total == 0 || len(ps) == 0 {
		return make([]float64, len(ps))
	}
	ks := make([]int, len(ps))
	for i, p := range ps {
		if !(p > 0) {
			p = 0
		}
		ks[i] = int(min(p, 1) * float64(total-1))
	}
	return ds.orderStats(ks)
}

// orderStats returns the values a sort of the expanded set would leave
// at the indices ks, each in [0, n(n-1)/2), and leaves the buffer as it
// was. One pass serves every rank its bracket holds; the ranks it
// misses take one more pass, over a full copy.
func (ds *Distances) orderStats(ks []int) []float64 {
	out := make([]float64, len(ks))
	all := make([]int, len(ks))
	for i := range all {
		all[i] = i
	}
	lo, hi, capHint := ds.bracket(ks)
	if missed := ds.selectRanks(lo, hi, capHint, ks, all, out); len(missed) > 0 {
		ds.selectRanks(math.Inf(-1), math.Inf(1), len(ds.d), ks, missed, out)
	}
	return out
}

// weighted is a distance that stands for w pairs of points.
type weighted struct {
	d float64
	w int
}

// rankBuckets is the number of equal-width value buckets selectRanks
// files its copy into, so that each rank is selected from its own
// bucket only.
const rankBuckets = 256

// selectRanks makes one pass over the class pairs that stand for point
// pairs: it weighs the NaN distances and the others below lo, and
// copies those in [lo, hi] out with their weights, into a slice
// allocated for capHint of them. For each index i of idx it then sets
// out[i] to the value at rank ks[i] of the expanded set — or returns i
// among the missed, when that rank is not NaN and not in the copy.
//
// Exactness does not depend on lo and hi: every NaN sorts before every
// value below lo, which sorts before every copied value, which sorts
// before every value above hi. Within the copy, the span of its finite
// values is cut into rankBuckets equal widths; a value's bucket,
// int((d-min)·scale) clamped to the buckets, never decreases as the
// value grows (every step of it rounds monotonically), so the buckets'
// weights locate a rank's bucket and the rank is selected among that
// bucket's values.
func (ds *Distances) selectRanks(lo, hi float64, capHint int, ks, idx []int, out []float64) (missed []int) {
	nan, below := 0, 0
	in := make([]weighted, 0, capHint)
	u := len(ds.size)
	for a, sa := range ds.size {
		row := ds.d[classRowStart(u, a):classRowStart(u, a+1)]
		sizes := ds.size[a:]
		for k, d := range row[:len(sizes)] {
			// Most distances lie above a low percentile's bracket: one
			// well-predicted comparison dismisses them.
			if d > hi {
				continue
			}
			w := sa * sizes[k]
			if k == 0 {
				w = sa * (sa - 1) / 2
			}
			switch {
			case d < lo:
				below += w
			case d != d:
				nan += w
			case w > 0:
				in = append(in, weighted{d, w})
			}
		}
	}
	// The buckets span the copy's finite values; -Inf falls in the
	// first and +Inf in the last.
	bl, bh := math.Inf(1), math.Inf(-1)
	for _, x := range in {
		if !math.IsInf(x.d, 0) {
			if x.d < bl {
				bl = x.d
			}
			if x.d > bh {
				bh = x.d
			}
		}
	}
	nb, scale := 1, 0.0
	if width := bh - bl; width > 0 && !math.IsInf(width, 0) && !math.IsInf(rankBuckets/width, 0) {
		nb, scale = rankBuckets, rankBuckets/width
	}
	var weight, count [rankBuckets]int
	for _, x := range in {
		b := bucketOf(x.d, bl, scale, nb)
		weight[b] += x.w
		count[b]++
	}
	var scratch []weighted
	for _, i := range idx {
		if ks[i] < nan {
			out[i] = math.NaN()
			continue
		}
		r, b := ks[i]-nan-below, 0
		for r >= 0 && b < nb && r >= weight[b] {
			r -= weight[b]
			b++
		}
		if r < 0 || b == nb {
			missed = append(missed, i)
			continue
		}
		bucket := in
		if nb > 1 {
			if cap(scratch) < count[b] {
				scratch = make([]weighted, 0, count[b])
			}
			bucket = scratch[:0]
			for _, x := range in {
				if bucketOf(x.d, bl, scale, nb) == b {
					bucket = append(bucket, x)
				}
			}
			scratch = bucket
		}
		out[i], _ = selectKth(bucket, r)
	}
	return missed
}

// bucketOf is the bucket of value d among nb buckets of width 1/scale
// from bl: int((d-bl)·scale), with everything at or below bl (-Inf
// included) in the first and everything past the last (+Inf included)
// in the last.
func bucketOf(d, bl, scale float64, nb int) int {
	switch x := (d - bl) * scale; {
	case !(x > 0):
		return 0
	case x >= float64(nb):
		return nb - 1
	default:
		return int(x)
	}
}

const (
	// bracketSample is the number of evenly strided class pairs bracket
	// estimates the ranks from. Selection costs about the same per
	// value in the sample and in the bracket, and a larger sample
	// narrows the bracket: 4 096 balances the two at a 512-point
	// window's 131 328 class pairs when all points are distinct.
	bracketSample = 4096
	// bracketMinLen is the buffer length below which bracket declines,
	// so the sample never exceeds a quarter of the buffer.
	bracketMinLen = 4 * bracketSample
)

// bracket returns two bounds lo <= hi that every rank of ks very likely
// falls between, and about how many class pairs lie between them — or
// -Inf, +Inf and the buffer's length, for a buffer shorter than
// bracketMinLen or with no sampled distance.
//
// A deterministic strided sample of bracketSample class pairs, each
// with its weight, stands for the set: the smallest rank sits near its
// weighted rank in the sample, give or take the spread of a weighted
// sample rank, and so does the largest. The bounds only decide how much
// one selectRanks pass copies and whether a rank is in the copy — a
// sample that is not representative, such as values periodic in the
// stride, costs time, never exactness.
func (ds *Distances) bracket(ks []int) (lo, hi float64, capHint int) {
	lo, hi, capHint = math.Inf(-1), math.Inf(1), len(ds.d)
	m := len(ds.d)
	if m < bracketMinLen || len(ks) == 0 {
		return lo, hi, capHint
	}
	stride := m / bracketSample
	var sample [bracketSample]weighted
	s, sumW, sumSq := 0, 0, 0.0
	u := len(ds.size)
	for a, i := 0, 0; i < bracketSample*stride; i += stride {
		for i >= classRowStart(u, a+1) {
			a++
		}
		b := a + i - classRowStart(u, a)
		w := ds.size[a] * ds.size[b]
		if b == a {
			w = ds.size[a] * (ds.size[a] - 1) / 2
		}
		if d := ds.d[i]; d == d && w > 0 {
			sample[s] = weighted{d, w}
			sumW += w
			sumSq += float64(w) * float64(w)
			s++
		}
	}
	if s == 0 {
		return lo, hi, capHint
	}
	// A rank at quantile q of the set sits near weighted rank q·Σw of
	// the sample, give or take about sqrt(q·(1−q)·Σw²). Three of those
	// plus eight mean weights make a miss rare on any ordinary buffer.
	total := float64(ds.pairs())
	spread := func(k int) (r, dr float64) {
		q := float64(k) / total
		return q * float64(sumW), 3*math.Sqrt(q*(1-q)*sumSq) + 8*float64(sumW)/float64(s)
	}
	rLo, drLo := spread(slices.Min(ks))
	rHi, drHi := spread(slices.Max(ks))
	// Selecting hi leaves the sample values below it in front, and lo is
	// a rank among those unless it is hi itself.
	below, belowW := s, sumW
	if rHi+drHi < float64(sumW) {
		hi, below = selectKth(sample[:s], int(rHi+drHi))
		belowW = 0
		for _, x := range sample[:below] {
			belowW += x.w
		}
	}
	if rLo-drLo >= 0 {
		lo = hi
		if r := int(rLo - drLo); r < belowW {
			lo, _ = selectKth(sample[:below], r)
		}
	}
	width := (rHi + drHi) - (rLo - drLo)
	return lo, hi, int(width/float64(sumW)*float64(m)) + stride
}

// selectInsertionMax is the range length at or below which selectKth
// finishes with an insertion sort instead of partitioning further.
const selectInsertionMax = 16

// selectKth reorders xs and returns the value v at index k of the
// expanded sort of xs — the multiset holding each xs[i].d xs[i].w
// times — for 0 <= k < the sum of the weights, and leaves the elements
// below v in xs[:below]. xs holds no NaN and no negative weight; a
// weight of 0 is allowed and counts nothing. That
// value is well defined whatever the algorithm: elements the order
// cannot tell apart — the duplicates of one value, -0 and +0 — compare
// == to each other, so any of them is the same threshold to every
// caller.
//
// Quickselect with a median-of-three pivot and a three-way partition
// that sums the weights on each side: the run of elements equal to the
// pivot is excluded from both sides, so duplicate-heavy distance arrays
// shrink as fast as distinct ones. ±Inf need no special case under <.
func selectKth(xs []weighted, k int) (v float64, below int) {
	lo, hi := 0, len(xs) // xs[lo:hi] holds rank k, counted from lo
	for hi-lo > selectInsertionMax {
		pivot := medianOfThree(xs[lo].d, xs[lo+(hi-lo)/2].d, xs[hi-1].d)
		// Invariant: xs[lo:lt] < pivot, xs[lt:i] == pivot, xs[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		wlt, weq := 0, 0
		for i < gt {
			switch x := xs[i]; {
			case x.d < pivot:
				xs[i], xs[lt] = xs[lt], x
				wlt += x.w
				lt++
				i++
			case x.d > pivot:
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				weq += x.w
				i++
			}
		}
		switch {
		case k < wlt:
			hi = lt
		case k < wlt+weq:
			return pivot, lt
		default:
			k -= wlt + weq
			lo = gt
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && xs[j].d < xs[j-1].d; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	for i, x := range xs[lo:hi] {
		if k < x.w {
			// The range is sorted and everything before it is smaller.
			below = lo + i
			for below > lo && xs[below-1].d == x.d {
				below--
			}
			return x.d, below
		}
		k -= x.w
	}
	panic("cluster: selectKth rank beyond the total weight")
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
