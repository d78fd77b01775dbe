package strsim

import (
	"slices"
	"sync"
	"sync/atomic"
)

// FNV64Offset is the FNV-64a offset basis, the seed for FNV64Byte
// chains: token base hashes and the MinHash blocker's band keys. The
// constants are spelled out so hot paths fold bytes without a
// hash.Hash allocation.
const FNV64Offset uint64 = 14695981039346656037

// FNV64Byte folds one byte into an FNV-64a state.
func FNV64Byte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * 1099511628211 }

// Interner maps token strings to dense uint32 IDs and caches each
// token's FNV-64a base hash. It is safe for concurrent use; typically
// one Interner is shared by every Builder of an operation (a blocking
// call) and dropped with it, so the vocabulary never outlives the data
// that produced it.
type Interner struct {
	mu     sync.RWMutex
	ids    map[string]uint32
	hashes []uint64
	// snap is the latest published view of hashes, stored on every
	// insert. Entries are immutable once published and appends only ever
	// write past a published snapshot's length, so a reader holding a
	// valid token ID resolves it through snap without touching mu —
	// blocking's parallel index build reads TokenHash lock-free. A reader
	// whose snapshot predates its ID (possible only through an
	// unsynchronized handoff) falls back to the locked path.
	snap atomic.Pointer[[]uint64]
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// internBytes returns the ID of token, assigning the next free ID on
// first sight: the n-th distinct token gets ID n-1. The common
// map-lookup path converts the scratch bytes without allocating; only
// a genuinely new token pays for a string copy.
func (in *Interner) internBytes(token []byte) uint32 {
	in.mu.RLock()
	id, ok := in.ids[string(token)]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[string(token)]; ok {
		return id
	}
	h := FNV64Offset
	for _, c := range token {
		h = FNV64Byte(h, c)
	}
	id = uint32(len(in.hashes))
	in.hashes = append(in.hashes, h)
	in.ids[string(token)] = id
	view := in.hashes
	in.snap.Store(&view)
	return id
}

// TokenHash returns the cached FNV-64a base hash of an interned token,
// the per-token input to MinHash signatures. The common case resolves
// against the published snapshot without locking — one atomic load per
// token even when many index workers share the interner.
func (in *Interner) TokenHash(id uint32) uint64 {
	if s := in.snap.Load(); s != nil && int(id) < len(*s) {
		return (*s)[id]
	}
	in.mu.RLock()
	h := in.hashes[id]
	in.mu.RUnlock()
	return h
}

// Builder tokenizes text into token IDs of a shared Interner. A Builder
// owns reusable scratch buffers and is therefore single-goroutine;
// concurrent producers each take their own Builder over one shared
// Interner.
type Builder struct {
	in    *Interner
	buf   []byte
	spans []span
	ids   []uint32
}

// NewBuilder returns a builder over in.
func NewBuilder(in *Interner) *Builder {
	return &Builder{in: in}
}

// UniqueTokenIDs tokenizes text, interns its tokens in text order, and
// returns their distinct IDs in ascending order. The returned slice is
// builder scratch, valid only until the next builder call; callers
// needing retention must copy.
func (b *Builder) UniqueTokenIDs(text string) []uint32 {
	b.buf, b.spans = appendTokens(text, b.buf[:0], b.spans[:0])
	b.ids = b.ids[:0]
	for _, sp := range b.spans {
		b.ids = append(b.ids, b.in.internBytes(sp.of(b.buf)))
	}
	slices.Sort(b.ids)
	b.ids = slices.Compact(b.ids)
	return b.ids
}
