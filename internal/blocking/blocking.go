// Package blocking implements the candidate-generation stage of an
// end-to-end ER system. The paper treats blocking as given (Section II-A)
// and evaluates matchers over pre-blocked candidate sets; this package
// exists so the library ships a complete pipeline: the cmd/ermatch tool
// and the examples block raw tables before matching.
//
// Two blockers are provided — token overlap and MinHash LSH — both built
// on one shared inverted-index core with a parallel sharded index build.
// Each implements Blocker, whose one method streams: tableB is indexed
// once and tableA walks through it row by row, so peak memory stays
// bounded by the tableB index instead of the candidate set.
package blocking

import (
	"context"
	"iter"

	"batcher/internal/entity"
	"batcher/internal/strsim"
)

// Blocker produces candidate pairs from two tables.
type Blocker interface {
	// BlockStream yields candidate pairs (a, b) with a from tableA and b
	// from tableB, deduplicated, in (row A, row B) order, one at a time,
	// so the consumer can overlap downstream work (LLM matching) with
	// generation. The sequence yields a non-nil error and stops if ctx is
	// cancelled mid-generation; otherwise every element carries a nil
	// error. Breaking out of the range loop simply abandons the stream
	// (no cleanup needed).
	BlockStream(ctx context.Context, tableA, tableB []entity.Record) iter.Seq2[entity.Pair, error]
}

// TokenBlocker pairs records sharing at least MinShared tokens on the
// chosen attribute.
type TokenBlocker struct {
	// Attr is the blocking key attribute; empty means all attributes
	// concatenated.
	Attr string
	// MinShared is the minimum number of shared tokens (>= 1).
	MinShared int
	// MaxPostings caps the inverted-list length per token; longer lists
	// are dropped as too frequent (a token in most records would
	// otherwise produce a quadratic candidate set). Zero means no cap.
	MaxPostings int
}

// tokenTermer extracts a record's distinct token IDs. One per goroutine;
// the termers of one blocking call share its interner, so their IDs
// are comparable.
type tokenTermer struct {
	attr string
	in   *strsim.Interner
	bld  strsim.Builder
}

func (b *TokenBlocker) termers() func() termer {
	in := strsim.NewInterner()
	return func() termer { return &tokenTermer{attr: b.Attr, in: in} }
}

func (t *tokenTermer) appendTerms(r entity.Record, dst []uint64) []uint64 {
	addKeyText(&t.bld, t.attr, r)
	for _, id := range t.bld.IDs(t.in) {
		dst = append(dst, uint64(id))
	}
	return dst
}

// minSharedOrDefault resolves the configured minimum shared-token count.
func (b *TokenBlocker) minSharedOrDefault() int {
	if b.MinShared < 1 {
		return 1
	}
	return b.MinShared
}

// BlockStream implements Blocker with an inverted index over tokens.
func (b *TokenBlocker) BlockStream(ctx context.Context, tableA, tableB []entity.Record) iter.Seq2[entity.Pair, error] {
	return streamByIndex(ctx, tableA, tableB, b, b.minSharedOrDefault(), b.MaxPostings)
}
