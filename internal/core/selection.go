package core

import (
	"math"
	"math/rand"
	"sort"

	"batcher/internal/cluster"
	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/setcover"
	"batcher/internal/tokens"
)

// selection is the result of demonstration selection: for each batch, the
// pool indices of its demonstrations, and the set of distinct pool
// indices that had to be annotated.
type selection struct {
	perBatch [][]int
	labeled  []int
}

// selectDemos runs the configured demonstration selection strategy
// (Section IV) over the generated batches.
func selectDemos(cfg Config, batches Batches, qVecs, dVecs []feature.Vector, pool []entity.Pair, geo geometry) selection {
	switch cfg.Selection {
	case TopKBatch:
		return topKBatchSelection(cfg, batches, qVecs, dVecs)
	case TopKQuestion:
		return topKQuestionSelection(cfg, batches, qVecs, dVecs)
	case CoveringSelection:
		return coveringSelection(batches, pool, geo)
	case VoteKSelection:
		return voteKSelection(cfg, batches, qVecs, dVecs)
	default:
		return fixedSelection(cfg, batches, len(pool))
	}
}

// fixedSelection samples NumDemos pool indices once and shares them with
// every batch (Section IV-A).
func fixedSelection(cfg Config, batches Batches, poolSize int) selection {
	rnd := rand.New(rand.NewSource(cfg.Seed + 1))
	k := cfg.NumDemos
	if k > poolSize {
		k = poolSize
	}
	perm := rnd.Perm(poolSize)
	shared := append([]int(nil), perm[:k]...)
	sort.Ints(shared)
	sel := selection{labeled: shared}
	for range batches {
		sel.perBatch = append(sel.perBatch, shared)
	}
	return sel
}

// topKBatchSelection picks the NumDemos pool entries nearest to each batch
// under the batch-to-demo distance of Eq. (6).
func topKBatchSelection(cfg Config, batches Batches, qVecs, dVecs []feature.Vector) selection {
	var sel selection
	labeled := make(map[int]bool)
	for _, batch := range batches {
		ids := nearest(len(dVecs), cfg.NumDemos, func(di int) float64 {
			return batchDistance(cfg, batch, qVecs, dVecs[di])
		})
		for _, di := range ids {
			labeled[di] = true
		}
		sel.perBatch = append(sel.perBatch, ids)
	}
	sel.labeled = sortedKeys(labeled)
	return sel
}

// batchDistance is Eq. (6)'s dist*(B, d) = min over q in B of dist(q, d).
func batchDistance(cfg Config, batch []int, qVecs []feature.Vector, d feature.Vector) float64 {
	best := math.Inf(1)
	for _, qi := range batch {
		if x := cfg.Distance(qVecs[qi], d); x < best {
			best = x
		}
	}
	return best
}

// topKQuestionSelection picks, for every question in a batch, its k
// nearest pool entries and uses the union (Section IV-C).
func topKQuestionSelection(cfg Config, batches Batches, qVecs, dVecs []feature.Vector) selection {
	k := cfg.questionK()
	var sel selection
	labeled := make(map[int]bool)
	for _, batch := range batches {
		chosen := make(map[int]bool)
		for _, qi := range batch {
			for _, di := range nearest(len(dVecs), k, func(di int) float64 { return cfg.Distance(qVecs[qi], dVecs[di]) }) {
				chosen[di] = true
				labeled[di] = true
			}
		}
		sel.perBatch = append(sel.perBatch, sortedKeys(chosen))
	}
	sel.labeled = sortedKeys(labeled)
	return sel
}

// coveringSelection implements Section V over geo.below, the cover
// relation of the questions (pool row d holds question q iff
// Distance(dVecs[d], qVecs[q]) < geo.t): stage 1 selects a minimal
// demonstration set covering all questions (unit weights), stage 2
// covers each batch from that set minimizing total token weight. Both
// stages read bits; neither measures a distance.
func coveringSelection(batches Batches, pool []entity.Pair, geo geometry) selection {
	// Stage 1: Demonstration Set Generation over the full question set.
	ds := setcover.GreedyRows(geo.below, nil)
	// Token weights for stage 2: the price of including each selected
	// demonstration in a prompt.
	weights := make([]float64, len(ds))
	for i, di := range ds {
		weights[i] = float64(tokens.Count(pool[di].Serialize())) + 1
	}
	var sel selection
	for _, batch := range batches {
		picked := setcover.GreedyRows(geo.below.Restrict(ds, batch), func(d int) float64 { return weights[d] })
		ids := make([]int, 0, len(picked))
		for _, pi := range picked {
			ids = append(ids, ds[pi])
		}
		sort.Ints(ids)
		sel.perBatch = append(sel.perBatch, ids)
	}
	sel.labeled = append([]int(nil), ds...)
	sort.Ints(sel.labeled)
	return sel
}

// coverThreshold computes the covering distance threshold t as the
// configured percentile of sampled all-question pairwise distances
// (Section VI-A: the 8th percentile balances labeling cost and accuracy).
// The sample is the first DistanceSampleCap entries of a permutation
// seeded apart from the clustering calibration's.
func coverThreshold(cfg Config, qVecs []feature.Vector) float64 {
	sample := qVecs
	if cfg.samples(len(qVecs)) {
		rnd := rand.New(rand.NewSource(cfg.Seed + 2))
		perm := rnd.Perm(len(qVecs))
		sample = make([]feature.Vector, cfg.DistanceSampleCap)
		for i := range sample {
			sample[i] = qVecs[perm[i]]
		}
	}
	ds := cluster.Measure(sample, cfg.Distance)
	return coverThresholdOf(ds, ds.Percentiles(cfg.CoverPercentile)[0])
}

// coverThresholdOf is the covering threshold given the sample's pairwise
// distances ds, which it only reads, and their CoverPercentile-th
// percentile t: t, or a positive stand-in when t is not positive.
func coverThresholdOf(ds *cluster.Distances, t float64) float64 {
	if t <= 0 {
		// Fewer than two questions, or duplicate-heavy geometry: fall
		// back to the smallest positive distance between two questions
		// so covering remains possible.
		t = 0.1
		found := false
		for d := range ds.All() {
			if d > 0 && (!found || d < t) {
				t, found = d, true
			}
		}
	}
	return t
}

// nearest returns the indices i in [0, n) of the k smallest dist(i), in
// ascending (distance, index) order, with NaN ranked after every number
// so the order is total. It calls dist once per index and keeps the
// best k by insertion, O(n·k): selection asks for a handful of the
// nearest out of a pool of thousands.
func nearest(n, k int, dist func(i int) float64) []int {
	k = max(0, min(k, n))
	idx := make([]int, 0, k)
	ds := make([]float64, 0, k)
	for i := 0; i < n; i++ {
		d := dist(i)
		// j is d's rank among the kept: after every distance it does
		// not precede, so equal distances keep index order.
		j := len(ds)
		for j > 0 && (d < ds[j-1] || math.IsNaN(ds[j-1]) && !math.IsNaN(d)) {
			j--
		}
		if j == k {
			continue
		}
		if len(ds) < k {
			ds, idx = append(ds, 0), append(idx, 0)
		}
		copy(ds[j+1:], ds[j:])
		copy(idx[j+1:], idx[j:])
		ds[j], idx[j] = d, i
	}
	return idx
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
