package profile

import (
	"sync"
	"unicode"
	"unicode/utf8"
)

// Builder tokenizes text into token IDs of a shared Interner. A Builder
// owns reusable scratch buffers and is therefore single-goroutine;
// concurrent producers each take their own Builder over one shared
// Interner.
type Builder struct {
	in *Interner
	// pooled marks builders obtained from Scratch, returnable by Release.
	pooled bool

	tok  []byte // UTF-8 scratch for the token being accumulated
	seq  []uint32
	uniq []uint32
	// Second-operand scratches for the one-shot string comparisons
	// (oneshot.go).
	seqB  []uint32
	uniqB []uint32
}

// NewBuilder returns a builder over in.
func NewBuilder(in *Interner) *Builder {
	return &Builder{in: in}
}

// Interner returns the interner the builder assigns token IDs from.
func (b *Builder) Interner() *Interner { return b.in }

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

// UniqueTokenIDs tokenizes text and returns its distinct token IDs in
// ascending ID order. The returned slice is builder scratch, valid only
// until the next builder call; callers needing retention must copy.
func (b *Builder) UniqueTokenIDs(text string) []uint32 {
	b.seq = b.appendTokenSeq(text, b.seq[:0])
	b.uniq = sortedUnique(b.seq, b.uniq[:0])
	return b.uniq
}

// maxPooledVocab bounds the vocabulary of a pooled one-shot builder:
// a Release with a larger interner drops the builder so a pathological
// input cannot pin an ever-growing table in the pool.
const maxPooledVocab = 4096

// scratchPool recycles one-shot builders (each with a private interner)
// for the string-based strsim entry points.
var scratchPool = sync.Pool{
	New: func() any { return NewBuilder(NewInterner()) },
}

// Scratch returns a pooled builder bound to a private interner, for
// one-shot comparisons: tokenize both operands, compare, Release.
// The interner deliberately persists across uses (within the vocabulary
// cap) so repeated comparisons over similar text reuse token entries.
func Scratch() *Builder {
	b := scratchPool.Get().(*Builder)
	b.pooled = true
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
