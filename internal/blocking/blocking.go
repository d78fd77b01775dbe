// Package blocking implements the candidate-generation stage of an
// end-to-end ER system. The paper treats blocking as given (Section II-A)
// and evaluates matchers over pre-blocked candidate sets; this package
// exists so the library ships a complete pipeline: the cmd/ermatch tool
// and the examples block raw tables before matching.
//
// Four blockers are provided — token overlap, q-gram, MinHash LSH, and
// sorted neighborhood — all built on one shared inverted-index core with
// a parallel sharded index build. Every blocker implements both Blocker
// (materialize the full candidate slice) and StreamBlocker (yield pairs
// incrementally with memory bounded by the tableB index), and the two
// paths produce identical pairs in identical order.
package blocking

import (
	"context"
	"iter"

	"batcher/internal/entity"
	"batcher/internal/profile"
)

// Blocker produces candidate pairs from two tables.
type Blocker interface {
	// Block returns candidate pairs (a, b) with a from tableA and b from
	// tableB, deduplicated, in deterministic order.
	Block(tableA, tableB []entity.Record) []entity.Pair
}

// TokenBlocker pairs records sharing at least MinShared tokens on the
// chosen attribute.
type TokenBlocker struct {
	// Attr is the blocking key attribute; empty means all attributes
	// concatenated.
	Attr string
	// MinShared is the minimum number of shared tokens (>= 1).
	MinShared int
	// StopTokens are ignored when indexing (very frequent tokens would
	// otherwise produce a quadratic candidate set).
	StopTokens map[string]bool
	// MaxPostings caps the inverted-list length per token; longer lists
	// are dropped as too frequent. Zero means no cap.
	MaxPostings int
}

// tokenTermer extracts a record's distinct non-stop token IDs. One per
// goroutine; the stop set is interned once at construction so the
// per-record filter is an integer lookup.
type tokenTermer struct {
	attr string
	bld  *profile.Builder
	stop map[uint32]bool
}

func (b *TokenBlocker) newTermer(in *profile.Interner) termer {
	t := &tokenTermer{attr: b.Attr, bld: profile.NewBuilder(in, 0)}
	if len(b.StopTokens) > 0 {
		t.stop = make(map[uint32]bool, len(b.StopTokens))
		for tok := range b.StopTokens {
			// Stop tokens are matched against lowercase tokens, exactly
			// as the map-based filter did; a mixed-case stop entry
			// interns to a token no record can produce and filters
			// nothing, preserving the legacy semantics.
			t.stop[in.Intern(tok)] = true
		}
	}
	return t
}

func (t *tokenTermer) appendTerms(r entity.Record, dst []uint64) []uint64 {
	for _, id := range t.bld.UniqueTokenIDs(keyText(t.attr, r)) {
		if t.stop[id] {
			continue
		}
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

// Block implements Blocker with an inverted index over tokens.
func (b *TokenBlocker) Block(tableA, tableB []entity.Record) []entity.Pair {
	return blockByIndex(tableA, tableB, b, b.minSharedOrDefault(), b.MaxPostings)
}

// BlockStream implements StreamBlocker.
func (b *TokenBlocker) BlockStream(ctx context.Context, tableA, tableB []entity.Record) iter.Seq2[entity.Pair, error] {
	return streamByIndex(ctx, tableA, tableB, b, b.minSharedOrDefault(), b.MaxPostings)
}

// QGramBlocker pairs records sharing at least MinShared q-grams on the key
// attribute, surviving token-level typos that defeat TokenBlocker.
type QGramBlocker struct {
	// Attr is the blocking key attribute; empty means all attributes.
	Attr string
	// Q is the gram size (default 3).
	Q int
	// MinShared is the minimum number of shared grams (default 2).
	MinShared int
	// MaxPostings caps per-gram list length. Zero means 256.
	MaxPostings int
}

// settings resolves the configured minimum shared grams and posting cap
// with their defaults (the gram size default lives in newTermer).
func (b *QGramBlocker) settings() (minShared, maxPost int) {
	minShared = b.MinShared
	if minShared < 1 {
		minShared = 2
	}
	maxPost = b.MaxPostings
	if maxPost <= 0 {
		maxPost = 256
	}
	return minShared, maxPost
}

// Block implements Blocker.
func (b *QGramBlocker) Block(tableA, tableB []entity.Record) []entity.Pair {
	minShared, maxPost := b.settings()
	return blockByIndex(tableA, tableB, b, minShared, maxPost)
}

// qgramTermer extracts a record's distinct q-gram signature hashes.
type qgramTermer struct {
	attr string
	bld  *profile.Builder
}

func (b *QGramBlocker) newTermer(in *profile.Interner) termer {
	q := b.Q
	if q <= 0 {
		q = 3
	}
	return &qgramTermer{attr: b.Attr, bld: profile.NewBuilder(in, q)}
}

func (t *qgramTermer) appendTerms(r entity.Record, dst []uint64) []uint64 {
	return append(dst, t.bld.GramHashes(keyText(t.attr, r))...)
}

// BlockStream implements StreamBlocker.
func (b *QGramBlocker) BlockStream(ctx context.Context, tableA, tableB []entity.Record) iter.Seq2[entity.Pair, error] {
	minShared, maxPost := b.settings()
	return streamByIndex(ctx, tableA, tableB, b, minShared, maxPost)
}
