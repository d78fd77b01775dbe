package profile

import (
	"slices"
	"sync"
	"unicode"
	"unicode/utf8"
)

// gramSentinel pads q-gram windows. It is U+0000, which cannot appear as
// a meaningful character in attribute text, so literal pad characters in
// the input can never collide with the padding — unlike the classic '#'
// sentinel, which inflates q-gram overlap for strings that contain '#'
// (e.g. "c#").
const gramSentinel = rune(0)

// Profile is the precomputed, immutable comparison form of one string:
// its distinct tokens. Build it once per entity/attribute and compare it
// allocation-free with the package kernels. Profiles are only comparable
// when built against the same Interner (kernels panic otherwise).
type Profile struct {
	in *Interner
	// tokens lists the distinct token IDs in ascending ID order.
	tokens []uint32
}

// Builder constructs Profiles against a shared Interner. A Builder owns
// reusable scratch buffers and is therefore single-goroutine; concurrent
// producers each take their own Builder over one shared Interner.
type Builder struct {
	in *Interner
	q  int
	// pooled marks builders obtained from Scratch, returnable by Release.
	pooled bool

	low   []rune // lowered runes of the current text
	tok   []byte // UTF-8 scratch for the token being accumulated
	seq   []uint32
	uniq  []uint32
	grams []uint64
	// Second-operand scratches for the one-shot string comparisons
	// (oneshot.go).
	seqB  []uint32
	uniqB []uint32
}

// NewBuilder returns a builder over in whose GramHashes produces q-gram
// signatures of size q (q = 0 disables them; q must not be negative).
func NewBuilder(in *Interner, q int) *Builder {
	if q < 0 {
		panic("profile: negative gram size")
	}
	return &Builder{in: in, q: q}
}

// Interner returns the interner the builder assigns token IDs from.
func (b *Builder) Interner() *Interner { return b.in }

// Build computes the profile of text: its sorted distinct token IDs.
// Allocation is bounded by the profile's own storage; all intermediate
// work happens in the builder's reusable scratch.
func (b *Builder) Build(text string) *Profile {
	p := &Profile{in: b.in}
	b.seq = b.appendTokenSeq(text, b.seq[:0])
	// Distinct tokens into builder scratch, then copied out at exact size.
	b.uniq = sortedUnique(b.seq, b.uniq[:0])
	if len(b.uniq) > 0 {
		p.tokens = append(make([]uint32, 0, len(b.uniq)), b.uniq...)
	}
	return p
}

// appendTokenSeq lowers text rune by rune, splits it on non-letter /
// non-digit boundaries exactly as strsim.Tokenize does, interns each
// token, and appends the IDs to dst in text order.
func (b *Builder) appendTokenSeq(text string, dst []uint32) []uint32 {
	b.tok = b.tok[:0]
	for _, r := range text {
		lr := unicode.ToLower(r)
		if isTokenRune(lr) {
			b.tok = utf8.AppendRune(b.tok, lr)
			continue
		}
		if len(b.tok) > 0 {
			dst = append(dst, b.in.internBytes(b.tok))
			b.tok = b.tok[:0]
		}
	}
	if len(b.tok) > 0 {
		dst = append(dst, b.in.internBytes(b.tok))
		b.tok = b.tok[:0]
	}
	return dst
}

// AppendTokenSeq tokenizes text and appends the interned token IDs to
// dst in text order (duplicates kept), without building a Profile. It
// is the light path for consumers that only need the sequence, e.g.
// sort-key construction and serialized-entity token streams.
func (b *Builder) AppendTokenSeq(text string, dst []uint32) []uint32 {
	return b.appendTokenSeq(text, dst)
}

// appendGramHashes hashes every q-rune window of the lowered text in
// b.low — padded with q-1 leading and trailing sentinel runes — then
// sorts and deduplicates in place, appending to dst. Windows are hashed
// with FNV-64a over the runes' UTF-8 encodings.
func (b *Builder) appendGramHashes(dst []uint64, q int) []uint64 {
	n := len(b.low)
	// Window starts range over the padded text: n + q - 1 windows.
	for start := -(q - 1); start < n; start++ {
		h := uint64(fnvOffset64)
		for k := start; k < start+q; k++ {
			r := gramSentinel
			if k >= 0 && k < n {
				r = b.low[k]
			}
			h = fnvRune(h, r)
		}
		dst = append(dst, h)
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// UniqueTokenIDs tokenizes text and returns its distinct token IDs in
// ascending ID order. The returned slice is builder scratch, valid only
// until the next builder call; callers needing retention must copy.
func (b *Builder) UniqueTokenIDs(text string) []uint32 {
	b.seq = b.appendTokenSeq(text, b.seq[:0])
	b.uniq = sortedUnique(b.seq, b.uniq[:0])
	return b.uniq
}

// GramHashes tokenizes nothing: it lowers text and returns its distinct
// q-gram signature hashes in ascending order, using the builder's gram
// size. The returned slice is builder scratch, valid only until the
// next builder call.
func (b *Builder) GramHashes(text string) []uint64 {
	if b.q < 1 {
		panic("profile: GramHashes requires a positive gram size")
	}
	b.low = b.low[:0]
	for _, r := range text {
		b.low = append(b.low, unicode.ToLower(r))
	}
	b.grams = b.appendGramHashes(b.grams[:0], b.q)
	return b.grams
}

// maxPooledVocab bounds the vocabulary of a pooled one-shot builder:
// a Release with a larger interner drops the builder so a pathological
// input cannot pin an ever-growing table in the pool.
const maxPooledVocab = 4096

// scratchPool recycles one-shot builders (each with a private interner)
// for the legacy string-based strsim entry points.
var scratchPool = sync.Pool{
	New: func() any { return NewBuilder(NewInterner(), 0) },
}

// Scratch returns a pooled builder bound to a private interner, for
// one-shot comparisons: build the operand profiles, compare, Release.
// The interner deliberately persists across uses (within the vocabulary
// cap) so repeated comparisons over similar text reuse token entries.
func Scratch(q int) *Builder {
	b := scratchPool.Get().(*Builder)
	b.pooled = true
	b.q = q
	return b
}

// Release returns a Scratch-obtained builder to the pool, unless its
// interner has outgrown the pooled-vocabulary cap (then the builder is
// dropped and the next Scratch starts fresh). No-op for builders from
// NewBuilder.
func (b *Builder) Release() {
	if b.retainable() {
		scratchPool.Put(b)
	}
}

// retainable reports whether Release would return the builder to the
// pool: only pooled builders whose interner is within the vocabulary
// cap are kept.
func (b *Builder) retainable() bool {
	return b.pooled && b.in.Len() <= maxPooledVocab
}
