package blocking

import (
	"context"
	"iter"
	"slices"

	"batcher/internal/entity"
)

// indexMatcher is the per-call state of the inverted-index blockers:
// the index over tableB, a termer of the same call for profiling tableA
// rows, and dense reused scratch. counts[j] is the
// number of shared terms with tableB row j in the current round, runs
// holds the round's posting runs, and js collects the qualifying rows —
// so steady-state candidate generation allocates nothing.
type indexMatcher struct {
	ix        *invertedIndex
	tr        termer
	minShared int32
	counts    []int32
	runs      [][]int32
	js        []int32
	terms     []uint64
}

// newIndexMatcher builds a fresh per-call inverted index over tableB's
// terms. Everything it builds (any vocabulary, index, scratch) lives and
// dies with the blocking call.
func newIndexMatcher(tableB []entity.Record, src termSource, minShared, maxPostings int) *indexMatcher {
	newTermer := src.termers()
	return &indexMatcher{
		ix:        buildIndex(tableB, newTermer, maxPostings),
		tr:        newTermer(),
		minShared: int32(minShared),
		counts:    make([]int32, len(tableB)),
		js:        make([]int32, 0, 64),
	}
}

// rowCandidates returns the tableB rows sharing at least minShared terms
// with ra, in ascending row order. It walks ra's posting runs twice:
// the first pass counts each row's shared terms; the second appends a
// row the first time it is met at minShared or more and zeroes its
// count, so a row is kept once and counts are all zero again for the
// next call. The slice is matcher scratch, valid until the next call.
func (m *indexMatcher) rowCandidates(ra entity.Record) []int32 {
	m.terms = m.tr.appendTerms(ra, m.terms[:0])
	m.runs = m.runs[:0]
	for _, t := range m.terms {
		if run := m.ix.lookup(t); len(run) > 0 {
			m.runs = append(m.runs, run)
		}
	}
	for _, run := range m.runs {
		for _, j := range run {
			m.counts[j]++
		}
	}
	m.js = m.js[:0]
	for _, run := range m.runs {
		for _, j := range run {
			if m.counts[j] >= m.minShared {
				m.js = append(m.js, j)
			}
			m.counts[j] = 0
		}
	}
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
