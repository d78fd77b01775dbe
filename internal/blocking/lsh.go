package blocking

import (
	"context"
	"iter"

	"batcher/internal/entity"
	"batcher/internal/strsim"
)

// MinHashBlocker pairs records whose token sets collide in at least one
// MinHash LSH band — an approximate Jaccard-similarity join. It scales to
// large tables where exact token-overlap indexing produces oversized
// candidate sets. Its recall/selectivity trade-off is the fixed
// minhashBands x minhashRows S-curve: a pair with Jaccard s collides with
// probability 1 - (1 - s^4)^8 (0.99 at s = 0.85, 0.5 near s = 0.54).
type MinHashBlocker struct {
	// Attr is the blocking key attribute; empty means all attributes.
	Attr string
}

// The LSH shape: 8 bands of 4 rows (32 permutations, one fixed
// permutation family), tuned for moderately dirty titles.
const (
	minhashBands = 8
	minhashRows  = 4
)

// minhashTermer computes per-record MinHash band keys. The FNV-64a base
// hash of every token is computed once per distinct token and cached in
// the shared interner, so a token that appears in thousands of records
// is hashed exactly once per blocking call.
type minhashTermer struct {
	attr string
	in   *strsim.Interner
	bld  *strsim.Builder
	sig  [minhashBands * minhashRows]uint64
}

func (b *MinHashBlocker) newTermer(in *strsim.Interner) termer {
	return &minhashTermer{attr: b.Attr, in: in, bld: strsim.NewBuilder(in)}
}

// appendTerms emits one term per LSH band: FNV-64a over the band index
// and the band's signature rows, so distinct bands occupy disjoint key
// spaces in the shared inverted index.
func (t *minhashTermer) appendTerms(r entity.Record, dst []uint64) []uint64 {
	for i := range t.sig {
		t.sig[i] = ^uint64(0)
	}
	for _, id := range t.bld.UniqueTokenIDs(keyText(t.attr, r)) {
		base := t.in.TokenHash(id)
		for i := range t.sig {
			// Salted permutation: a cheap xorshift-style mix of the base
			// hash with the permutation index.
			v := base ^ (uint64(i) * 0x9e3779b97f4a7c15)
			v ^= v >> 33
			v *= 0xff51afd7ed558ccd
			v ^= v >> 33
			if v < t.sig[i] {
				t.sig[i] = v
			}
		}
	}
	for band := 0; band < minhashBands; band++ {
		h := strsim.FNV64Offset
		for k := 0; k < 4; k++ {
			h = strsim.FNV64Byte(h, byte(band>>(8*k)))
		}
		for ri := 0; ri < minhashRows; ri++ {
			v := t.sig[band*minhashRows+ri]
			for k := 0; k < 8; k++ {
				h = strsim.FNV64Byte(h, byte(v>>(8*k)))
			}
		}
		dst = append(dst, h)
	}
	return dst
}

// BlockStream implements Blocker: any band collision (minShared 1)
// makes a candidate, with no posting cap — an over-full bucket is the
// S-curve speaking, not an indexing artifact.
func (b *MinHashBlocker) BlockStream(ctx context.Context, tableA, tableB []entity.Record) iter.Seq2[entity.Pair, error] {
	return streamByIndex(ctx, tableA, tableB, b, 1, 0)
}
