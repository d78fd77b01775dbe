// Package setcover implements the greedy weighted set cover algorithm of
// the paper's Algorithm 1, used by both covering-based selection stages:
//
//   - Demonstration Set Generation (Section V-A): unit weights, minimize the
//     number of demonstrations covering all questions; and
//   - Batch Covering (Section V-B): token-count weights, minimize the total
//     token weight of demonstrations covering a batch.
//
// The cover relation is a bitrel.Rel — one row of question bits per
// demonstration — which Rows builds from a predicate (or a caller
// already holds), and GreedyRows runs on word operations over it, in a
// Scratch a caller covering many batches reuses.
package setcover

import (
	"math/bits"
	"slices"

	"batcher/internal/bitrel"
	"batcher/internal/workpool"
)

// minParallelCover is the cell count (demonstrations x questions) at
// which Rows builds its matrix across workpool workers. Below it the
// whole relation costs less to evaluate than the goroutines would to
// start. Rows' callers are a separate pool's rectangular pool x question
// relation in core and GreedyThreshold; per-batch covering restricts an
// already built relation (bitrel.Rel.Restrict) and never reaches Rows.
// Package variable rather than constant so tests can force both paths.
var minParallelCover = 1 << 14

// Rows evaluates covers(d, q) once per cell into the relation
// GreedyRows takes: nd rows over nq columns, row d holding q iff
// covers(d, q). Rows are built by demonstration across workpool workers
// from minParallelCover cells on, so covers must be safe for concurrent
// calls; each task writes its own row and nothing else, so the relation
// does not depend on how the rows were scheduled.
func Rows(nd, nq int, covers func(d, q int) bool) *bitrel.Rel {
	rows := bitrel.New(nd, nq)
	workers := 1
	if nd*nq >= minParallelCover {
		workers = workpool.Workers()
	}
	workpool.For(workers, nd, func(d int) {
		row := rows.Row(d)
		for q := 0; q < nq; q++ {
			if covers(d, q) {
				row[q>>6] |= 1 << (q & 63)
			}
		}
	})
	return rows
}

// Scratch is GreedyRows' working storage. A caller that covers many
// relations in turn — core covers every batch of a window — passes the
// same Scratch each time, so only the first cover and covers wider than
// any before it allocate. The zero value is ready to use.
type Scratch struct {
	bound   []int
	weights []float64
	covered []uint64
	picks   []int
}

// GreedyRows runs Algorithm 1 on the cover relation rows — row d holds
// the questions demonstration d covers (see Rows; cluster.Sweep's rows
// when the pool is the question set): starting from the empty
// selection, repeatedly add the demonstration maximizing (marginal
// covered questions) / weight until the selection covers every question
// that the full candidate set can cover. Ties go to the higher raw
// gain, then to the lower index. The returned slice lists selected
// demonstration indices in selection order. rows is read, never
// written. weight(d) is the cost of selecting demonstration d; nil
// means unit weights. The picks live in s and are valid until the next
// call with s; a nil s allocates a fresh Scratch, so the picks are the
// caller's.
//
// Questions that no candidate covers are ignored (they cap the reachable
// value, matching the f_Q(Ds) != f_Q(D) termination test in the paper).
//
// A demonstration's marginal gain is popcount(row &^ covered). Gains only
// shrink as the selection grows, so the last gain computed for a
// demonstration bounds its current one from above, and a pick skips
// every demonstration whose bound cannot beat the best candidate found
// so far under the tie-break order — the pick is the one a full rescan
// would make. The first bounds are the rows' popcounts, taken once per
// stored row.
func GreedyRows(rows *bitrel.Rel, weight func(d int) float64, s *Scratch) []int {
	if s == nil {
		s = new(Scratch)
	}
	nd := rows.Len()
	// bound[d] is the last marginal gain computed for d: exact when
	// computed, an upper bound afterwards.
	s.bound = rows.Counts(s.bound)
	bound := s.bound
	s.weights = slices.Grow(s.weights[:0], nd)[:nd]
	weights := s.weights
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
	s.covered = slices.Grow(s.covered[:0], bitrel.Words(rows.Cols()))[:bitrel.Words(rows.Cols())]
	covered := s.covered
	clear(covered)
	// beats is the pick order: higher ratio, then higher raw gain; the
	// ascending scan leaves the lower index on a full tie.
	beats := func(ratio float64, gain int, bestRatio float64, bestGain int) bool {
		return ratio > bestRatio || (ratio == bestRatio && gain > bestGain)
	}
	// Every pick covers a new question, so there are at most
	// min(nd, Cols) of them.
	out := slices.Grow(s.picks[:0], min(nd, rows.Cols()))
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
			for i, r := range rows.Row(d) {
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
			s.picks = out
			return out
		}
		out = append(out, best)
		for i, r := range rows.Row(best) {
			covered[i] |= r
		}
		bound[best] = 0
	}
}

// GreedyThreshold is a convenience wrapper for the geometric case used by
// BATCHER: demonstration d covers question q iff dist(d, q) < t.
func GreedyThreshold(numDemos, numQuestions int, dist func(d, q int) float64, t float64, weight func(d int) float64) []int {
	rows := Rows(numDemos, numQuestions, func(d, q int) bool { return dist(d, q) < t })
	return GreedyRows(rows, weight, nil)
}
