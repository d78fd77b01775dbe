// Package cluster implements the unsupervised clustering and
// nearest-neighbour machinery used by question batching and demonstration
// selection: DBSCAN (the paper's default), K-Means (alternative), and a
// brute-force kNN index over feature vectors.
//
// All algorithms operate on feature.Vector slices with a pluggable
// feature.Distance and are deterministic for a fixed seed.
package cluster

import (
	"math"
	"math/rand"
	"sort"

	"batcher/internal/feature"
	"batcher/internal/workpool"
)

// minParallelDBSCAN is the point count above which DBSCAN fans its
// region queries out across workpool workers. Below it the per-query
// coordination costs more than the O(n) distance scan it would split.
// Package variable rather than constant so tests can force both paths.
var minParallelDBSCAN = 2048

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
// itself). The scan order is index order, so results are deterministic.
//
// The pairwise distance stage dominates: O(n^2) dist calls over feature
// vectors. Neighbour lists are gathered into one reused scratch buffer —
// the only steady allocations are the expansion queue's growth — so the
// stage adds nothing per comparison on top of the dist function itself.
// Above minParallelDBSCAN points each region query's j-scan is split
// into index chunks across workpool workers and the per-chunk hits are
// concatenated in chunk order, so the neighbour list is the same
// ascending-index sequence the serial scan produces and the clustering
// stays deterministic. dist must then be safe for concurrent calls
// (every feature.Distance in this repo is pure).
func DBSCAN(points []feature.Vector, dist feature.Distance, eps float64, minPts int) Result {
	n := len(points)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = Noise
	}
	visited := make([]bool, n)
	scratch := make([]int, 0, 64)
	// neighbors gathers into the shared scratch; the caller must copy
	// (or fully consume) the result before the next call.
	neighbors := func(i int) []int {
		ns := scratch[:0]
		for j := 0; j < n; j++ {
			if dist(points[i], points[j]) <= eps {
				ns = append(ns, j)
			}
		}
		scratch = ns
		return ns
	}
	if workers := workpool.Workers(); workers > 1 && n >= minParallelDBSCAN {
		chunk := (n + workers - 1) / workers
		bufs := make([][]int, workers)
		neighbors = func(i int) []int {
			workpool.For(workers, workers, func(c int) {
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				b := bufs[c][:0]
				for j := lo; j < hi; j++ {
					if dist(points[i], points[j]) <= eps {
						b = append(b, j)
					}
				}
				bufs[c] = b
			})
			ns := scratch[:0]
			for _, b := range bufs {
				ns = append(ns, b...)
			}
			scratch = ns
			return ns
		}
	}
	var queue []int
	k := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		ns := neighbors(i)
		if len(ns) < minPts {
			continue // remains noise unless adopted as a border point
		}
		// Start a new cluster and expand it breadth-first. append copies
		// the scratch-backed neighbour list, so reuse is safe.
		c := k
		k++
		assign[i] = c
		queue = append(queue[:0], ns...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if !visited[j] {
				visited[j] = true
				njs := neighbors(j)
				if len(njs) >= minPts {
					queue = append(queue, njs...)
				}
			}
			if assign[j] == Noise {
				assign[j] = c
			}
		}
	}
	return Result{Assign: assign, K: k}
}

// EpsPercentile estimates a DBSCAN eps from the data: the p-th percentile
// (p clamped to [0,1]) of pairwise distances on a sample of at most
// sampleCap points, drawn by a seeded shuffle when the input is larger.
// This mirrors the paper's percentile-based threshold calibration; the
// order statistic itself is PairwisePercentile's, found by selection
// over the O(sample^2) distances.
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
	eps, _ := PairwisePercentile(sample, dist, p)
	return eps
}

// KMeans clusters points into k clusters with Lloyd's algorithm and
// k-means++ seeding. It uses Euclidean geometry regardless of dist (the
// centroid update assumes it); callers wanting cosine should normalize
// inputs. maxIter bounds the Lloyd iterations.
func KMeans(points []feature.Vector, k, maxIter int, seed int64) Result {
	n := len(points)
	if n == 0 || k <= 0 {
		return Result{Assign: make([]int, n), K: 0}
	}
	if k > n {
		k = n
	}
	rnd := rand.New(rand.NewSource(seed))
	centroids := seedPlusPlus(points, k, rnd)
	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := feature.Euclidean(p, cent); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		dim := len(points[0])
		sums := make([]feature.Vector, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make(feature.Vector, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim && d < len(p); d++ {
				sums[c][d] += p[d]
			}
		}
		for c := range sums {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				centroids[c] = points[rnd.Intn(n)].Clone()
				continue
			}
			for d := range sums[c] {
				sums[c][d] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
	}
	return Result{Assign: assign, K: k}
}

// seedPlusPlus picks k initial centroids with D^2 weighting.
func seedPlusPlus(points []feature.Vector, k int, rnd *rand.Rand) []feature.Vector {
	n := len(points)
	centroids := make([]feature.Vector, 0, k)
	centroids = append(centroids, points[rnd.Intn(n)].Clone())
	d2 := make([]float64, n)
	for len(centroids) < k {
		var sum float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := feature.Euclidean(p, c); d < best {
					best = d
				}
			}
			d2[i] = best * best
			sum += d2[i]
		}
		if sum == 0 {
			// All points coincide with centroids; duplicate one.
			centroids = append(centroids, points[rnd.Intn(n)].Clone())
			continue
		}
		r := rnd.Float64() * sum
		acc := 0.0
		pick := n - 1
		for i, w := range d2 {
			acc += w
			if acc >= r {
				pick = i
				break
			}
		}
		centroids = append(centroids, points[pick].Clone())
	}
	return centroids
}

// Neighbor is a kNN search hit.
type Neighbor struct {
	// Index is the position of the hit in the indexed collection.
	Index int
	// Dist is its distance to the query.
	Dist float64
}

// KNNIndex is a brute-force exact nearest-neighbour index. It is adequate
// for the benchmark scales here (up to tens of thousands of vectors) and
// keeps the dependency surface at zero.
type KNNIndex struct {
	points []feature.Vector
	dist   feature.Distance
}

// NewKNNIndex builds an index over points with the given distance.
func NewKNNIndex(points []feature.Vector, dist feature.Distance) *KNNIndex {
	return &KNNIndex{points: points, dist: dist}
}

// Len returns the number of indexed points.
func (ix *KNNIndex) Len() int { return len(ix.points) }

// Query returns the k nearest indexed points to q, ordered by increasing
// distance with index as the tiebreak (deterministic).
func (ix *KNNIndex) Query(q feature.Vector, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	ns := make([]Neighbor, len(ix.points))
	for i, p := range ix.points {
		ns[i] = Neighbor{Index: i, Dist: ix.dist(q, p)}
	}
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Dist != ns[j].Dist {
			return ns[i].Dist < ns[j].Dist
		}
		return ns[i].Index < ns[j].Index
	})
	if k > len(ns) {
		k = len(ns)
	}
	return ns[:k]
}

// Nearest returns the single nearest neighbour, or a Neighbor with
// Index -1 if the index is empty.
func (ix *KNNIndex) Nearest(q feature.Vector) Neighbor {
	ns := ix.Query(q, 1)
	if len(ns) == 0 {
		return Neighbor{Index: -1, Dist: math.Inf(1)}
	}
	return ns[0]
}
