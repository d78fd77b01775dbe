// Package profile implements precomputed entity profiles for the
// CPU-bound front half of the pipeline (blocking, feature extraction,
// clustering input). A Profile is built once per string — its sorted
// distinct interned token IDs — and every subsequent comparison runs
// allocation-free over sorted-slice merges instead of rebuilding hash
// sets per call.
//
// The package has three layers:
//
//   - Interner: a shared, concurrency-safe string-to-uint32 table that
//     also caches per-token derived data (FNV base hash, hashed
//     embedding features) so it is computed once per distinct token.
//   - Builder: a single-goroutine profile factory with reusable scratch
//     buffers; several Builders may share one Interner. It also hashes
//     q-gram signatures and token-ID sets for the blockers.
//   - kernels: Jaccard over Profiles, plus the one-shot string forms of
//     Jaccard and the Levenshtein ratio (pooled-scratch DP, ASCII fast
//     path) that internal/strsim wraps, bit-identical to the classic
//     string-based implementations.
package profile

import (
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// FNV-64a constants, used for token base hashes, q-gram signatures, and
// hashed embedding features. Spelled out locally so the hot paths can
// fold bytes without a hash.Hash allocation.
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

// FNV64Offset is the FNV-64a offset basis, the seed for FNV64Byte /
// FNV64String chains. Exported so other packages fold bytes with the
// same function instead of re-spelling the constants.
const FNV64Offset uint64 = fnvOffset64

// FNV64Byte folds one byte into an FNV-64a state.
func FNV64Byte(h uint64, b byte) uint64 { return fnvByte(h, b) }

// FNV64String folds a string's bytes into an FNV-64a state.
func FNV64String(h uint64, s string) uint64 { return fnvString(h, s) }

// fnvRune folds a rune's UTF-8 encoding into an FNV-64a state.
func fnvRune(h uint64, r rune) uint64 {
	var buf [utf8.UTFMax]byte
	n := utf8.EncodeRune(buf[:], r)
	for i := 0; i < n; i++ {
		h = fnvByte(h, buf[i])
	}
	return h
}

// tokenInfo is the per-distinct-token data cached by the interner.
type tokenInfo struct {
	// text is the token itself (already lowercase).
	text string
	// runes is the decoded form, nil when the token is pure ASCII (then
	// text indexes as runes directly).
	runes []rune
	// runeLen is the token length in runes.
	runeLen int
	// hash is FNV-64a(text): the MinHash base hash of the token.
	hash uint64
	// wordFeat is FNV-64a("w:"+text): the hashed-embedding word feature.
	wordFeat uint64
	// gramFeats are FNV-64a("g:"+trigram) for each rune trigram of the
	// token, in order: the hashed-embedding character features.
	gramFeats []uint64
}

// Interner maps token strings to dense uint32 IDs and caches per-token
// derived data. It is safe for concurrent use; typically one Interner is
// shared by every Builder of an operation (a blocking call, a window)
// and dropped with it, so the vocabulary never outlives the data that
// produced it.
type Interner struct {
	// embed marks interners that precompute hashed-embedding features
	// per token (see NewEmbedInterner); plain interners skip that work.
	embed bool

	mu   sync.RWMutex
	ids  map[string]uint32
	toks []tokenInfo
	// snap is the latest published view of toks, stored on every insert.
	// Entries are immutable once published and appends only ever write
	// past a published snapshot's length, so a reader holding a valid
	// token ID resolves it through snap without touching mu — the
	// kernels' per-token lookups stay lock-free under parallel
	// extraction. A reader whose snapshot predates its ID (possible only
	// through an unsynchronized handoff) falls back to the locked path.
	snap atomic.Pointer[[]tokenInfo]
}

// NewInterner returns an empty interner without embedding-feature
// caches — the right choice for blocking and plain similarity kernels.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// NewEmbedInterner returns an empty interner that additionally caches
// the hashed-embedding features of every token (word and trigram
// feature hashes) at intern time, for semantics-based extractors.
// TokenFeatureHashes requires an interner built this way.
func NewEmbedInterner() *Interner {
	return &Interner{embed: true, ids: make(map[string]uint32)}
}

// Len returns the number of distinct tokens interned so far.
func (in *Interner) Len() int {
	in.mu.RLock()
	n := len(in.toks)
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
	info := tokenInfo{
		text: token,
		hash: fnvString(fnvOffset64, token),
	}
	ascii := true
	for i := 0; i < len(token); i++ {
		if token[i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	if ascii {
		info.runeLen = len(token)
	} else {
		info.runes = []rune(token)
		info.runeLen = len(info.runes)
	}
	if in.embed {
		info.wordFeat = fnvString(fnvString(fnvOffset64, "w:"), token)
		if n := info.runeLen; n >= 3 {
			info.gramFeats = make([]uint64, 0, n-2)
			for i := 0; i+3 <= n; i++ {
				h := fnvString(fnvOffset64, "g:")
				for k := i; k < i+3; k++ {
					h = fnvRune(h, info.runeAt(k))
				}
				info.gramFeats = append(info.gramFeats, h)
			}
		}
	}
	id := uint32(len(in.toks))
	in.toks = append(in.toks, info)
	in.ids[token] = id
	view := in.toks
	in.snap.Store(&view)
	return id
}

// runeAt returns the token's i-th rune without the caller knowing
// whether the token is stored as bytes or runes.
func (t *tokenInfo) runeAt(i int) rune {
	if t.runes != nil {
		return t.runes[i]
	}
	return rune(t.text[i])
}

// info returns the cached data of an interned token. The common case
// resolves against the published snapshot without locking — one atomic
// load per token even when many extraction workers share the interner.
func (in *Interner) info(id uint32) *tokenInfo {
	if s := in.snap.Load(); s != nil && int(id) < len(*s) {
		return &(*s)[id]
	}
	in.mu.RLock()
	t := &in.toks[id]
	in.mu.RUnlock()
	return t
}

// TokenHash returns the cached FNV-64a base hash of an interned token,
// the per-token input to MinHash signatures.
func (in *Interner) TokenHash(id uint32) uint64 { return in.info(id).hash }

// TokenFeatureHashes returns the cached hashed-embedding features of a
// token: the word-feature hash and the per-trigram character-feature
// hashes in trigram order. The returned slice is shared; callers must
// not modify it. It panics unless the interner came from
// NewEmbedInterner — plain interners do not carry these caches.
func (in *Interner) TokenFeatureHashes(id uint32) (word uint64, grams []uint64) {
	if !in.embed {
		panic("profile: TokenFeatureHashes requires NewEmbedInterner")
	}
	t := in.info(id)
	return t.wordFeat, t.gramFeats
}

// BigramFeatureHash returns FNV-64a("b:"+token(a)+"_"+token(b)), the
// hashed-embedding feature of two adjacent tokens, computed without
// materializing the concatenation.
func (in *Interner) BigramFeatureHash(a, b uint32) uint64 {
	ta, tb := in.info(a), in.info(b)
	h := fnvString(fnvOffset64, "b:")
	h = fnvString(h, ta.text)
	h = fnvByte(h, '_')
	return fnvString(h, tb.text)
}

// isTokenRune reports whether a (lowercased) rune belongs inside a
// token. It mirrors strsim.Tokenize's FieldsFunc complement.
func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}
