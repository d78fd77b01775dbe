package core

import (
	"math"
	"math/rand"
	"sort"

	"batcher/internal/feature"
)

// VoteKSelection is an extension beyond the paper's Table I: selective
// annotation in the style of vote-k (Su et al., ICLR 2023 — reference
// [48] of the paper). Pool items vote for their neighbours in a kNN
// graph; high-vote items are representative of dense regions, and a
// diversity discount keeps the annotated set spread out. Each batch then
// receives its nearest annotated demonstrations.
//
// Compared with covering-based selection it optimizes representativeness
// of the *pool* rather than coverage of the *questions*, so it can be
// computed before the question set is known — useful when annotation
// happens ahead of time.
const VoteKSelection SelectStrategy = 100

// voteKSelection picks cfg.NumDemos*voteKBudgetFactor representative pool
// items by graph voting, annotates them, and allocates the nearest
// annotated demos to each batch.
func voteKSelection(cfg Config, batches Batches, qVecs, dVecs []feature.Vector) selection {
	budget := cfg.NumDemos * voteKBudgetFactor
	if budget > len(dVecs) {
		budget = len(dVecs)
	}
	annotated := voteK(cfg, dVecs, budget)
	var sel selection
	sel.labeled = append([]int(nil), annotated...)
	sort.Ints(sel.labeled)
	perBatchK := cfg.NumDemos
	for _, batch := range batches {
		chosen := make(map[int]bool)
		// Nearest annotated demo per question (ties to the earlier
		// annotation), then fill to the budget by batch distance.
		for _, qi := range batch {
			for _, ai := range nearest(len(annotated), 1, func(ai int) float64 {
				return cfg.Distance(qVecs[qi], dVecs[annotated[ai]])
			}) {
				chosen[annotated[ai]] = true
			}
		}
		if len(chosen) < perBatchK {
			var rest []int // unchosen annotated pool indices, ascending
			for _, di := range sel.labeled {
				if !chosen[di] {
					rest = append(rest, di)
				}
			}
			for _, ri := range nearest(len(rest), perBatchK-len(chosen), func(ri int) float64 {
				return batchDistance(cfg, batch, qVecs, dVecs[rest[ri]])
			}) {
				chosen[rest[ri]] = true
			}
		}
		sel.perBatch = append(sel.perBatch, sortedKeys(chosen))
	}
	return sel
}

// voteMargins computes the per-batch vote-k disagreement margin, the
// cascade's pre-call uncertainty signal. For each question, the margin is
// the relative gap between its nearest and second-nearest annotated
// demonstrations, (d2-d1)/(d1+d2): near 0 the two nearest exemplars are
// equidistant — the question sits on a boundary between labeled regions,
// so neighbourhood voting disagrees — and near 1 a single exemplar
// dominates. A batch's margin is its least-certain question's. Batches
// with fewer than two annotated demonstrations to vote, or degenerate
// zero distances, report 1 (no disagreement evidence).
func voteMargins(cfg Config, batches Batches, qVecs, dVecs []feature.Vector, labeled []int) []float64 {
	margins := make([]float64, len(batches))
	annVecs := make([]feature.Vector, len(labeled))
	for i, di := range labeled {
		annVecs[i] = dVecs[di]
	}
	for bi, batch := range batches {
		m := 1.0
		if len(annVecs) >= 2 {
			for _, qi := range batch {
				d1, d2 := math.Inf(1), math.Inf(1)
				for _, av := range annVecs {
					d := cfg.Distance(qVecs[qi], av)
					if d < d1 {
						d1, d2 = d, d1
					} else if d < d2 {
						d2 = d
					}
				}
				if sum := d1 + d2; sum > 0 {
					if qm := (d2 - d1) / sum; qm < m {
						m = qm
					}
				}
			}
		}
		margins[bi] = m
	}
	return margins
}

// voteKBudgetFactor scales the annotation budget relative to NumDemos.
const voteKBudgetFactor = 3

// voteKNeighbors is the kNN graph degree.
const voteKNeighbors = 10

// voteKPoolCap bounds the vote-k graph size: the kNN graph is O(n^2), so
// larger pools are deterministically subsampled first. Representativeness
// degrades gracefully — a uniform subsample preserves density structure.
const voteKPoolCap = 1500

// voteK returns `budget` representative, diverse pool indices.
func voteK(cfg Config, dVecs []feature.Vector, budget int) []int {
	if len(dVecs) > voteKPoolCap {
		rnd := rand.New(rand.NewSource(cfg.Seed + 3))
		perm := rnd.Perm(len(dVecs))[:voteKPoolCap]
		sort.Ints(perm)
		sub := make([]feature.Vector, len(perm))
		for i, pi := range perm {
			sub[i] = dVecs[pi]
		}
		picked := voteK(cfg, sub, budget)
		out := make([]int, len(picked))
		for i, pi := range picked {
			out[i] = perm[pi]
		}
		return out
	}
	n := len(dVecs)
	if n == 0 || budget <= 0 {
		return nil
	}
	k := voteKNeighbors
	if k >= n {
		k = n - 1
	}
	// Votes: each item votes for its k nearest neighbours.
	votes := make([]float64, n)
	neighbors := make([][]int, n)
	for i := 0; i < n; i++ {
		// other maps position p among the n-1 items other than i to its
		// index.
		other := func(p int) int {
			if p >= i {
				return p + 1
			}
			return p
		}
		for _, p := range nearest(n-1, k, func(p int) float64 { return cfg.Distance(dVecs[i], dVecs[other(p)]) }) {
			votes[other(p)]++
			neighbors[i] = append(neighbors[i], other(p))
		}
	}
	// Greedy pick with a decay discount: once an item is selected, votes
	// coming from its graph neighbourhood count exponentially less,
	// pushing later picks into unrepresented regions (the vote-k rule).
	discount := make([]float64, n) // times item i's region was covered
	selected := make([]bool, n)
	var out []int
	for len(out) < budget {
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			score := votes[i] * math.Pow(10, -discount[i])
			if score > bestScore || (score == bestScore && best >= 0 && i < best) {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		selected[best] = true
		out = append(out, best)
		for _, j := range neighbors[best] {
			discount[j]++
		}
		discount[best] += 2
	}
	return out
}
