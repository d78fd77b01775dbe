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
// pool indices of its demonstrations, the set of distinct pool indices
// that had to be annotated, and each batch's vote-k disagreement margin.
type selection struct {
	perBatch [][]int
	labeled  []int
	// margins holds voteMargins over the annotated set, aligned with
	// perBatch. It is computed for every strategy — the margin is a
	// property of the annotated geometry, not of vote-k selection — so
	// the cascade's escalation signal is always available.
	margins []float64
}

// selectDemos runs the configured demonstration selection strategy
// (Section IV) over the generated batches.
func selectDemos(cfg Config, batches Batches, qVecs, dVecs []feature.Vector, pool []entity.Pair, geo geometry) selection {
	var sel selection
	switch cfg.Selection {
	case TopKBatch:
		sel = topKBatchSelection(cfg, batches, qVecs, dVecs)
	case TopKQuestion:
		sel = topKQuestionSelection(cfg, batches, qVecs, dVecs)
	case CoveringSelection:
		sel = coveringSelection(cfg, batches, qVecs, dVecs, pool, geo)
	case VoteKSelection:
		sel = voteKSelection(cfg, batches, qVecs, dVecs)
	default:
		sel = fixedSelection(cfg, batches, len(pool))
	}
	sel.margins = voteMargins(cfg, batches, qVecs, dVecs, sel.labeled)
	return sel
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
// under the batch-to-demo distance of Eq. (6):
// dist*(B, d) = min over q in B of dist(q, d).
func topKBatchSelection(cfg Config, batches Batches, qVecs, dVecs []feature.Vector) selection {
	var sel selection
	labeled := make(map[int]bool)
	for _, batch := range batches {
		type cand struct {
			idx  int
			dist float64
		}
		cands := make([]cand, len(dVecs))
		for di, dv := range dVecs {
			best := math.Inf(1)
			for _, qi := range batch {
				if d := cfg.Distance(qVecs[qi], dv); d < best {
					best = d
				}
			}
			cands[di] = cand{idx: di, dist: best}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].idx < cands[j].idx
		})
		k := cfg.NumDemos
		if k > len(cands) {
			k = len(cands)
		}
		ids := make([]int, 0, k)
		for _, c := range cands[:k] {
			ids = append(ids, c.idx)
			labeled[c.idx] = true
		}
		sel.perBatch = append(sel.perBatch, ids)
	}
	sel.labeled = sortedKeys(labeled)
	return sel
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
			for _, di := range nearestK(cfg.Distance, qVecs[qi], dVecs, k) {
				chosen[di] = true
				labeled[di] = true
			}
		}
		sel.perBatch = append(sel.perBatch, sortedKeys(chosen))
	}
	sel.labeled = sortedKeys(labeled)
	return sel
}

// coveringSelection implements Section V: stage 1 selects a minimal
// demonstration set covering all questions (unit weights), stage 2 covers
// each batch from that set minimizing total token weight. Demonstration d
// covers question q iff Distance(dVecs[d], qVecs[q]) < geo.t. A
// self-pooled window has that relation as bits already (geo.below) and
// neither stage calls Distance; any other pool evaluates its rectangular
// relation here, once for stage 1 and again per batch.
func coveringSelection(cfg Config, batches Batches, qVecs, dVecs []feature.Vector, pool []entity.Pair, geo geometry) selection {
	covers := func(d, q int) bool { return cfg.Distance(dVecs[d], qVecs[q]) < geo.t }
	// Stage 1: Demonstration Set Generation over the full question set.
	var ds []int
	if geo.below != nil {
		words := cluster.RowWords(len(qVecs))
		covers = func(d, q int) bool { return geo.below[d*words+q>>6]>>(q&63)&1 != 0 }
		ds = setcover.GreedyRows(len(dVecs), len(qVecs), geo.below, nil)
	} else {
		ds = setcover.Greedy(setcover.Instance{NumQuestions: len(qVecs), NumDemos: len(dVecs), Covers: covers})
	}
	// Token weights for stage 2: the price of including each selected
	// demonstration in a prompt.
	weights := make([]float64, len(ds))
	for i, di := range ds {
		weights[i] = float64(tokens.Count(pool[di].Serialize())) + 1
	}
	var sel selection
	for _, batch := range batches {
		picked := setcover.Greedy(setcover.Instance{
			NumQuestions: len(batch),
			NumDemos:     len(ds),
			Covers:       func(d, q int) bool { return covers(ds[d], batch[q]) },
			Weight:       func(d int) float64 { return weights[d] },
		})
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
	return coverThresholdOf(cluster.PairwiseDistances(sample, cfg.Distance), cfg.CoverPercentile)
}

// coverThresholdOf is the covering threshold given the sample's pairwise
// distances ds, which it reorders: their p-th percentile as
// cluster.Percentile finds it, or a positive stand-in when that is not
// positive.
func coverThresholdOf(ds []float64, p float64) float64 {
	t := cluster.Percentile(ds, p)
	if t <= 0 {
		// Fewer than two questions, or duplicate-heavy geometry: fall
		// back to the smallest positive distance so covering remains
		// possible.
		t = 0.1
		found := false
		for _, d := range ds {
			if d > 0 && (!found || d < t) {
				t, found = d, true
			}
		}
	}
	return t
}

// nearestK returns the indices of the k nearest vectors in pool to q.
func nearestK(dist feature.Distance, q feature.Vector, pool []feature.Vector, k int) []int {
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, len(pool))
	for i, p := range pool {
		cands[i] = cand{idx: i, dist: dist(q, p)}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].idx < cands[j].idx
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
