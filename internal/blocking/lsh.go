package blocking

import (
	"context"
	"iter"

	"batcher/internal/entity"
	"batcher/internal/profile"
)

// MinHashBlocker pairs records whose token sets collide in at least one
// MinHash LSH band — an approximate Jaccard-similarity join. It scales to
// large tables where exact token-overlap indexing produces oversized
// candidate sets, and its recall/selectivity trade-off is governed by the
// usual (bands, rows) S-curve: a pair with Jaccard s collides with
// probability 1 - (1 - s^rows)^bands.
type MinHashBlocker struct {
	// Attr is the blocking key attribute; empty means all attributes.
	Attr string
	// Bands and Rows shape the LSH S-curve. Defaults: 8 bands x 4 rows
	// (32 permutations), tuned for moderately dirty titles.
	Bands, Rows int
	// Seed derives the hash permutations.
	Seed uint64
}

func (b *MinHashBlocker) bands() int {
	if b.Bands <= 0 {
		return 8
	}
	return b.Bands
}

func (b *MinHashBlocker) rows() int {
	if b.Rows <= 0 {
		return 4
	}
	return b.Rows
}

// minhashTermer computes per-record MinHash band keys. The FNV-64a base
// hash of every token is computed once per distinct token and cached in
// the shared interner, so a token that appears in thousands of records
// is hashed exactly once per blocking call.
type minhashTermer struct {
	attr        string
	bld         *profile.Builder
	sig         []uint64
	bands, rows int
	seed        uint64
}

func (b *MinHashBlocker) newTermer(in *profile.Interner) termer {
	bands, rows := b.bands(), b.rows()
	return &minhashTermer{
		attr:  b.Attr,
		bld:   profile.NewBuilder(in),
		sig:   make([]uint64, bands*rows),
		bands: bands,
		rows:  rows,
		seed:  b.Seed,
	}
}

// appendTerms emits one term per LSH band: FNV-64a over the band index
// and the band's signature rows, so distinct bands occupy disjoint key
// spaces in the shared inverted index.
func (t *minhashTermer) appendTerms(r entity.Record, dst []uint64) []uint64 {
	n := t.bands * t.rows
	for i := range t.sig {
		t.sig[i] = ^uint64(0)
	}
	in := t.bld.Interner()
	for _, id := range t.bld.UniqueTokenIDs(keyText(t.attr, r)) {
		base := in.TokenHash(id)
		for i := 0; i < n; i++ {
			// Salted permutation: a cheap xorshift-style mix of the base
			// hash with the permutation index and seed.
			v := base ^ (uint64(i)*0x9e3779b97f4a7c15 + t.seed)
			v ^= v >> 33
			v *= 0xff51afd7ed558ccd
			v ^= v >> 33
			if v < t.sig[i] {
				t.sig[i] = v
			}
		}
	}
	for band := 0; band < t.bands; band++ {
		h := profile.FNV64Offset
		for k := 0; k < 4; k++ {
			h = profile.FNV64Byte(h, byte(band>>(8*k)))
		}
		for ri := 0; ri < t.rows; ri++ {
			v := t.sig[band*t.rows+ri]
			for k := 0; k < 8; k++ {
				h = profile.FNV64Byte(h, byte(v>>(8*k)))
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
