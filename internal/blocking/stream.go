package blocking

import (
	"context"
	"iter"
	"slices"

	"batcher/internal/entity"
	"batcher/internal/strsim"
)

// indexMatcher is the per-call state of the inverted-index blockers:
// the index over tableB, a termer over the shared per-call interner for
// profiling tableA rows, and dense reused scratch. counts[j] is the
// number of shared terms with tableB row j in the current round,
// touched lists the rows with nonzero counts so resetting is
// O(touched), and js collects the qualifying rows — so steady-state
// candidate generation allocates nothing.
type indexMatcher struct {
	ix        *invertedIndex
	tr        termer
	minShared int32
	counts    []int32
	touched   []int32
	js        []int32
	terms     []uint64
}

// newIndexMatcher interns tableB's terms into a fresh per-call inverted
// index. Everything interned (vocabulary, index, scratch) lives and
// dies with the blocking call.
func newIndexMatcher(tableB []entity.Record, src termSource, minShared, maxPostings int) *indexMatcher {
	in := strsim.NewInterner()
	return &indexMatcher{
		ix:        buildIndex(tableB, src, in, maxPostings),
		tr:        src.newTermer(in),
		minShared: int32(minShared),
		counts:    make([]int32, len(tableB)),
		touched:   make([]int32, 0, 256),
		js:        make([]int32, 0, 64),
	}
}

// rowCandidates returns the tableB rows sharing at least minShared terms
// with ra, in ascending row order. The slice is matcher scratch, valid
// until the next call.
func (m *indexMatcher) rowCandidates(ra entity.Record) []int32 {
	m.terms = m.tr.appendTerms(ra, m.terms[:0])
	for _, t := range m.terms {
		for _, p := range m.ix.lookup(t) {
			if m.counts[p.row] == 0 {
				m.touched = append(m.touched, p.row)
			}
			m.counts[p.row]++
		}
	}
	m.js = m.js[:0]
	for _, j := range m.touched {
		if m.counts[j] >= m.minShared {
			m.js = append(m.js, j)
		}
		m.counts[j] = 0
	}
	m.touched = m.touched[:0]
	slices.Sort(m.js)
	return m.js
}

// streamByIndex is the shared streaming candidate generator behind the
// inverted-index blockers (token, MinHash): it indexes tableB
// once, then walks tableA row by row yielding that row's candidates in
// ascending row order. Cancellation is checked once per tableA row.
func streamByIndex(ctx context.Context, tableA, tableB []entity.Record, src termSource, minShared, maxPostings int) iter.Seq2[entity.Pair, error] {
	return func(yield func(entity.Pair, error) bool) {
		if err := ctx.Err(); err != nil {
			yield(entity.Pair{}, err)
			return
		}
		m := newIndexMatcher(tableB, src, minShared, maxPostings)
		for _, ra := range tableA {
			if err := ctx.Err(); err != nil {
				yield(entity.Pair{}, err)
				return
			}
			for _, j := range m.rowCandidates(ra) {
				if !yield(entity.Pair{A: ra, B: tableB[j], Truth: entity.Unknown}, nil) {
					return
				}
			}
		}
	}
}
