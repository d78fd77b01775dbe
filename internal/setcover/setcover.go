// Package setcover implements the greedy weighted set cover algorithm of
// the paper's Algorithm 1, used by both covering-based selection stages:
//
//   - Demonstration Set Generation (Section V-A): unit weights, minimize the
//     number of demonstrations covering all questions; and
//   - Batch Covering (Section V-B): token-count weights, minimize the total
//     token weight of demonstrations covering a batch.
//
// The package exposes the generic greedy routine over an abstract coverage
// relation plus the Hk-bound helpers quoted in the paper's approximation
// guarantees. The relation is evaluated once into a bit matrix — one row
// of question bits per demonstration — and the greedy loop runs on word
// operations over those rows.
package setcover

import (
	"math"
	"math/bits"

	"batcher/internal/workpool"
)

// minParallelCover is the cell count (demonstrations x questions) at
// which Greedy builds its cover matrix across workpool workers. Below
// it — every per-batch covering call — the whole relation costs less to
// evaluate than the goroutines would to start. Package variable rather
// than constant so tests can force both paths.
var minParallelCover = 1 << 14

// Instance describes a weighted set cover instance: nq questions, nd
// candidate demonstrations, a coverage predicate, and per-demonstration
// weights.
type Instance struct {
	// NumQuestions is the number of elements to cover.
	NumQuestions int
	// NumDemos is the number of candidate covering sets.
	NumDemos int
	// Covers reports whether demonstration d covers question q. It must
	// be safe for concurrent calls: Greedy evaluates large instances
	// from several goroutines.
	Covers func(d, q int) bool
	// Weight is the cost of selecting demonstration d. Nil means unit
	// weights.
	Weight func(d int) float64
}

// Greedy runs Algorithm 1: starting from the empty selection, repeatedly
// add the demonstration maximizing (marginal covered questions) / weight
// until the selection covers every question that the full candidate set
// can cover. Ties go to the higher raw gain, then to the lower index.
// The returned slice lists selected demonstration indices in selection
// order.
//
// Questions that no candidate covers are ignored (they cap the reachable
// value, matching the f_Q(Ds) != f_Q(D) termination test in the paper).
//
// Greedy evaluates the cover relation exactly once, into the bit matrix
// GreedyRows takes, and runs GreedyRows on it. Rows are built by
// demonstration across workpool workers above minParallelCover cells;
// fn(d) writes row d and nothing else, so the matrix — and with it the
// selection — does not depend on how the rows were scheduled. A caller
// that already holds the relation as rows (a pool that is its own
// question set gets them from cluster.Sweep) calls GreedyRows directly.
func Greedy(inst Instance) []int {
	nd, nq := inst.NumDemos, inst.NumQuestions
	words := (nq + 63) / 64
	rows := make([]uint64, nd*words)
	workers := 1
	if nd*nq >= minParallelCover {
		workers = workpool.Workers()
	}
	workpool.For(workers, nd, func(d int) {
		row := rows[d*words : (d+1)*words]
		for q := 0; q < nq; q++ {
			if inst.Covers(d, q) {
				row[q>>6] |= 1 << (q & 63)
			}
		}
	})
	return GreedyRows(nd, nq, rows, inst.Weight)
}

// GreedyRows is Greedy over a prebuilt cover relation: rows holds nd
// rows of ceil(nq/64) words in one slice, bit q of row d set iff
// demonstration d covers question q, so the matrix takes
// nd * ceil(nq/64) words whatever its density. rows is read, never
// written. weight is Instance.Weight: nil means unit weights.
//
// A demonstration's marginal gain is popcount(row &^ covered). Gains only
// shrink as the selection grows, so the last gain computed for a
// demonstration bounds its current one from above, and a pick skips
// every demonstration whose bound cannot beat the best candidate found
// so far under the tie-break order — the pick is the one a full rescan
// would make.
func GreedyRows(nd, nq int, rows []uint64, weight func(d int) float64) []int {
	words := (nq + 63) / 64
	// bound[d] is the last marginal gain computed for d: exact when
	// computed, an upper bound afterwards.
	bound := make([]int, nd)
	for d := range bound {
		for _, r := range rows[d*words : (d+1)*words] {
			bound[d] += bits.OnesCount64(r)
		}
	}
	weights := make([]float64, nd)
	for d := range weights {
		w := 1.0
		if weight != nil {
			w = weight(d)
		}
		if w <= 0 {
			w = 1e-12 // guard: nonpositive weights would loop forever
		}
		weights[d] = w
	}
	covered := make([]uint64, words)
	// beats is the pick order: higher ratio, then higher raw gain; the
	// ascending scan leaves the lower index on a full tie.
	beats := func(ratio float64, gain int, bestRatio float64, bestGain int) bool {
		return ratio > bestRatio || (ratio == bestRatio && gain > bestGain)
	}
	var out []int
	for {
		best, bestRatio, bestGain := -1, 0.0, 0
		for d := 0; d < nd; d++ {
			ub := bound[d]
			if ub == 0 {
				continue // selected, or covers nothing new
			}
			w := weights[d]
			if best != -1 && !beats(float64(ub)/w, ub, bestRatio, bestGain) {
				continue
			}
			gain := 0
			for i, r := range rows[d*words : (d+1)*words] {
				gain += bits.OnesCount64(r &^ covered[i])
			}
			bound[d] = gain
			if gain == 0 {
				continue
			}
			if ratio := float64(gain) / w; best == -1 || beats(ratio, gain, bestRatio, bestGain) {
				best, bestRatio, bestGain = d, ratio, gain
			}
		}
		if best == -1 {
			// No demonstration adds coverage: everything coverable is
			// covered.
			return out
		}
		out = append(out, best)
		for i, r := range rows[best*words : (best+1)*words] {
			covered[i] |= r
		}
		bound[best] = 0
	}
}

// GreedyThreshold is a convenience wrapper for the geometric case used by
// BATCHER: demonstration d covers question q iff dist(d, q) < t.
func GreedyThreshold(numDemos, numQuestions int, dist func(d, q int) float64, t float64, weight func(d int) float64) []int {
	return Greedy(Instance{
		NumQuestions: numQuestions,
		NumDemos:     numDemos,
		Covers:       func(d, q int) bool { return dist(d, q) < t },
		Weight:       weight,
	})
}

// Coverage reports how many of the nq questions the selection covers under
// the instance's predicate, and whether all coverable questions are
// covered.
func Coverage(inst Instance, selection []int) (covered int, complete bool) {
	cov := make([]bool, inst.NumQuestions)
	for _, d := range selection {
		for q := 0; q < inst.NumQuestions; q++ {
			if inst.Covers(d, q) {
				cov[q] = true
			}
		}
	}
	reachable := make([]bool, inst.NumQuestions)
	for d := 0; d < inst.NumDemos; d++ {
		for q := 0; q < inst.NumQuestions; q++ {
			if inst.Covers(d, q) {
				reachable[q] = true
			}
		}
	}
	complete = true
	for q := 0; q < inst.NumQuestions; q++ {
		if cov[q] {
			covered++
		} else if reachable[q] {
			complete = false
		}
	}
	return covered, complete
}

// Hk returns the k-th harmonic number H_k = sum_{i=1..k} 1/i, the factor in
// the greedy algorithm's Hk·OPT approximation bound quoted in Section V-A.
func Hk(k int) float64 {
	var h float64
	for i := 1; i <= k; i++ {
		h += 1 / float64(i)
	}
	return h
}

// BatchCoverBound returns the paper's quoted approximation ratio for the
// Batch Covering greedy, ln|B| - ln ln|B| + Θ(1), evaluated with the Θ(1)
// term as 1. For |B| < 3 the bound degenerates; we return 1 (the greedy is
// optimal for one question and near-optimal for two).
func BatchCoverBound(batchSize int) float64 {
	if batchSize < 3 {
		return 1
	}
	l := math.Log(float64(batchSize))
	return l - math.Log(l) + 1
}
