// Package profile holds the tokenizing machinery shared by blocking and
// the string-similarity primitives: a concurrency-safe token interner,
// single-goroutine builders that turn text into interned token IDs, and
// the one-shot similarity kernels internal/strsim wraps.
//
// The package has three layers:
//
//   - Interner: a shared, concurrency-safe string-to-uint32 table that
//     also caches each token's FNV-64a base hash, the per-token input
//     to the MinHash blocker's signatures.
//   - Builder: a single-goroutine tokenizer with reusable scratch
//     buffers; several Builders may share one Interner. The blockers
//     take a text's distinct token IDs from it.
//   - kernels: the one-shot string forms of Jaccard and the Levenshtein
//     ratio (pooled-scratch tokenizing and DP, ASCII fast path) that
//     internal/strsim wraps, bit-identical to the classic string-based
//     implementations and allocation-free in steady state.
package profile

import (
	"sync"
	"sync/atomic"
	"unicode"
)

// FNV-64a constants, used for token base hashes and the MinHash
// blocker's band keys. Spelled out locally so the hot paths can fold
// bytes without a hash.Hash allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvByte folds one byte into an FNV-64a state.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvString folds a string's bytes into an FNV-64a state.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// FNV64Offset is the FNV-64a offset basis, the seed for FNV64Byte
// chains. Exported so other packages fold bytes with the same function
// instead of re-spelling the constants.
const FNV64Offset uint64 = fnvOffset64

// FNV64Byte folds one byte into an FNV-64a state.
func FNV64Byte(h uint64, b byte) uint64 { return fnvByte(h, b) }

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

// Len returns the number of distinct tokens interned so far.
func (in *Interner) Len() int {
	in.mu.RLock()
	n := len(in.hashes)
	in.mu.RUnlock()
	return n
}

// Intern returns the ID of token, assigning the next free ID on first
// sight. Token IDs are dense: the n-th distinct token gets ID n-1.
func (in *Interner) Intern(token string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[token]
	in.mu.RUnlock()
	if ok {
		return id
	}
	return in.internSlow(token)
}

// internBytes is Intern for a scratch byte buffer: the common map-lookup
// path converts without allocating, and only a genuinely new token pays
// for a string copy.
func (in *Interner) internBytes(token []byte) uint32 {
	in.mu.RLock()
	id, ok := in.ids[string(token)]
	in.mu.RUnlock()
	if ok {
		return id
	}
	return in.internSlow(string(token))
}

func (in *Interner) internSlow(token string) uint32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[token]; ok {
		return id
	}
	id := uint32(len(in.hashes))
	in.hashes = append(in.hashes, fnvString(fnvOffset64, token))
	in.ids[token] = id
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

// isTokenRune reports whether a (lowercased) rune belongs inside a
// token. It mirrors strsim.Tokenize's FieldsFunc complement.
func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}
