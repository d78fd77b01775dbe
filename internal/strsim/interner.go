package strsim

import (
	"slices"
	"sync"
)

// FNV64Offset is the FNV-64a offset basis, the seed for FNV64Byte
// chains: Builder.Hashes' token hashes and the MinHash blocker's band
// keys. The constants are spelled out so hot paths fold bytes without a
// hash.Hash allocation.
const FNV64Offset uint64 = 14695981039346656037

// FNV64Byte folds one byte into an FNV-64a state.
func FNV64Byte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * 1099511628211 }

// Interner maps token strings to dense uint32 IDs. It is safe for
// concurrent use; typically one Interner is shared by every Builder of
// an operation (a token-blocking call) and dropped with it, so the
// vocabulary never outlives the data that produced it.
type Interner struct {
	mu  sync.Mutex
	ids map[string]uint32
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// Builder tokenizes texts into one reusable scratch buffer and hands
// their tokens out in one of two forms: distinct interned IDs (IDs) or
// one FNV-64a hash per token (Hashes). A Builder is single-goroutine;
// concurrent producers each take their own, over one shared Interner
// when they compare IDs. The zero Builder is ready to use.
type Builder struct {
	buf    []byte
	spans  []span
	ids    []uint32
	hashes []uint64
}

// Reset drops every token added so far.
func (b *Builder) Reset() {
	b.buf, b.spans = b.buf[:0], b.spans[:0]
}

// Add appends the tokens of text to those already added. No token
// spans two texts.
func (b *Builder) Add(text string) {
	b.buf, b.spans = appendTokens(text, b.buf, b.spans)
}

// IDs interns the added tokens in order, the n-th distinct token the
// interner has seen getting ID n-1, and returns their distinct IDs in
// ascending order. The map lookup converts the scratch bytes without
// allocating; only a new token pays for a string copy. The returned
// slice is builder scratch, valid only until the next call.
func (b *Builder) IDs(in *Interner) []uint32 {
	b.ids = b.ids[:0]
	in.mu.Lock()
	for _, sp := range b.spans {
		id, ok := in.ids[string(sp.of(b.buf))]
		if !ok {
			id = uint32(len(in.ids))
			in.ids[string(sp.of(b.buf))] = id
		}
		b.ids = append(b.ids, id)
	}
	in.mu.Unlock()
	slices.Sort(b.ids)
	return slices.Compact(b.ids)
}

// Hashes returns the FNV-64a hash of every added token, in order,
// repeats included. The returned slice is builder scratch, valid only
// until the next call.
func (b *Builder) Hashes() []uint64 {
	b.hashes = b.hashes[:0]
	for _, sp := range b.spans {
		h := FNV64Offset
		for _, c := range sp.of(b.buf) {
			h = FNV64Byte(h, c)
		}
		b.hashes = append(b.hashes, h)
	}
	return b.hashes
}
