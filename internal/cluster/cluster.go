// Package cluster implements the unsupervised clustering used by
// question batching and demonstration selection: DBSCAN (the paper's
// default) with its percentile-calibrated eps, and the one-pass pairwise
// distance sweep that feeds it. Both measure a point set once per
// unordered pair of distinct values: Measure keeps those distances for
// weighted percentiles and a sweep, Sweep thresholds them as it goes.
//
// All algorithms operate on feature.Vector slices with a pluggable
// feature.Distance and are deterministic for a fixed seed.
package cluster

import (
	"math/bits"
	"math/rand"

	"batcher/internal/bitrel"
	"batcher/internal/feature"
)

// Noise is the cluster ID DBSCAN assigns to points that belong to no
// cluster.
const Noise = -1

// Result holds a clustering assignment.
type Result struct {
	// Assign maps each input index to a cluster ID in [0, K) or Noise.
	Assign []int
	// K is the number of clusters found (excluding noise).
	K int
}

// Clusters groups input indices by cluster ID. Noise points are returned
// as singleton clusters appended after the real ones, so downstream
// batching never loses questions.
func (r Result) Clusters() [][]int {
	groups := make([][]int, r.K)
	var noise []int
	for i, c := range r.Assign {
		if c == Noise {
			noise = append(noise, i)
			continue
		}
		groups[c] = append(groups[c], i)
	}
	for _, i := range noise {
		groups = append(groups, []int{i})
	}
	return groups
}

// DBSCAN clusters points with the classic density-based algorithm of Ester
// et al. (the paper's choice, reference [27]). eps is the neighbourhood
// radius under dist and minPts the density threshold (including the point
// itself, when it is its own neighbour). The scan order is index order, so
// results are deterministic.
//
// The ε-neighbourhood relation dist <= eps is evaluated once, by Sweep,
// into bit rows — U(U+1)/2 dist calls for U distinct points, across
// workpool workers — and DBSCANRows expands the clusters over its rows.
// dist must therefore be symmetric and pure (see feature.Distance) and
// safe for concurrent calls; every feature.Distance in this repo is.
func DBSCAN(points []feature.Vector, dist feature.Distance, eps float64, minPts int) Result {
	within, _ := Sweep(points, dist, eps, true, 0, false)
	return DBSCANRows(within, minPts)
}

// DBSCANRows is DBSCAN over a prebuilt ε-neighbourhood of n points: row
// i of within holds j iff j is a neighbour of i (Sweep's relation). It
// is read, never written.
//
// A point's neighbour count is its row's popcount, taken once per
// stored row: points that share a row (equal vectors, see Sweep) share
// its count. A cluster grows breadth-first from its seed: a core point's
// row is masked with the still-unassigned points, and those join the
// cluster and the queue in ascending index order — so the queue holds
// each point at most once over the whole run, and the assignment is the
// one the textbook formulation (scan every point for each region query,
// queue every neighbour list) produces: there a queued point's second
// and later occurrences change nothing, and a cluster runs to
// completion before the next one starts.
func DBSCANRows(within *bitrel.Rel, minPts int) Result {
	n := within.Len()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = Noise
	}
	// free has bit j set while assign[j] == Noise.
	free := make([]uint64, bitrel.Words(n))
	for j := 0; j < n; j++ {
		free[j>>6] |= 1 << (j & 63)
	}
	visited := make([]bool, n) // region query done
	count := within.Counts()
	var queue []int
	// claim moves core point i's unassigned neighbours into cluster c
	// and onto the queue.
	claim := func(i, c int) {
		for w, r := range within.Row(i) {
			for m := r & free[w]; m != 0; m &= m - 1 {
				j := w<<6 | bits.TrailingZeros64(m)
				assign[j] = c
				queue = append(queue, j)
			}
			free[w] &^= r
		}
	}
	k := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		if count[i] < minPts {
			continue // remains noise unless adopted as a border point
		}
		assign[i] = k
		free[i>>6] &^= 1 << (i & 63)
		queue = queue[:0]
		claim(i, k)
		for qi := 0; qi < len(queue); qi++ {
			if j := queue[qi]; !visited[j] {
				visited[j] = true
				if count[j] >= minPts {
					claim(j, k)
				}
			}
		}
		k++
	}
	return Result{Assign: assign, K: k}
}

// EpsPercentile estimates a DBSCAN eps from the data: the p-th percentile
// (p clamped to [0,1]) of pairwise distances on a sample of at most
// sampleCap points, drawn by a seeded shuffle when the input is larger.
// This mirrors the paper's percentile-based threshold calibration, and
// is the Percentiles of the sample's Distances: U(U+1)/2 dist calls for
// its U distinct values. Fewer than two points have no pairwise
// distance and yield 0.
func EpsPercentile(points []feature.Vector, dist feature.Distance, p float64, sampleCap int, seed int64) float64 {
	sample := points
	if n := len(points); sampleCap > 0 && n > sampleCap {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		rnd := rand.New(rand.NewSource(seed))
		rnd.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		sample = make([]feature.Vector, sampleCap)
		for i := range sample {
			sample[i] = points[idx[i]]
		}
	}
	return Measure(sample, dist).Percentiles(p)[0]
}
