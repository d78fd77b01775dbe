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
	"math/bits"
	"math/rand"
	"sort"

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
// into a bit matrix — n(n+1)/2 dist calls, across workpool workers — and
// DBSCANRows expands the clusters over its rows. dist must therefore be
// symmetric (see feature.Distance) and safe for concurrent calls; every
// feature.Distance in this repo is both.
func DBSCAN(points []feature.Vector, dist feature.Distance, eps float64, minPts int) Result {
	within, _ := Sweep(points, dist, eps, true, 0, false)
	return DBSCANRows(len(points), within, minPts)
}

// DBSCANRows is DBSCAN over a prebuilt ε-neighbourhood: within holds n
// rows of RowWords(n) words, bit j of row i set iff j is a neighbour of
// i (Sweep's layout). It is read, never written.
//
// A point's neighbour count is its row's popcount, taken once. A cluster
// grows breadth-first from its seed: a core point's row is masked with
// the still-unassigned points, and those join the cluster and the queue
// in ascending index order — so the queue holds each point at most once
// over the whole run, and the assignment is the one the textbook
// formulation (scan every point for each region query, queue every
// neighbour list) produces: there a queued point's second and later
// occurrences change nothing, and a cluster runs to completion before
// the next one starts.
func DBSCANRows(n int, within []uint64, minPts int) Result {
	words := RowWords(n)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = Noise
	}
	// free has bit j set while assign[j] == Noise.
	free := make([]uint64, words)
	for j := 0; j < n; j++ {
		free[j>>6] |= 1 << (j & 63)
	}
	visited := make([]bool, n) // region query done
	isCore := func(i int) bool {
		count := 0
		for _, r := range within[i*words : (i+1)*words] {
			count += bits.OnesCount64(r)
		}
		return count >= minPts
	}
	var queue []int
	// claim moves core point i's unassigned neighbours into cluster c
	// and onto the queue.
	claim := func(i, c int) {
		for w, r := range within[i*words : (i+1)*words] {
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
		if !isCore(i) {
			continue // remains noise unless adopted as a border point
		}
		assign[i] = k
		free[i>>6] &^= 1 << (i & 63)
		queue = queue[:0]
		claim(i, k)
		for qi := 0; qi < len(queue); qi++ {
			if j := queue[qi]; !visited[j] {
				visited[j] = true
				if isCore(j) {
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
