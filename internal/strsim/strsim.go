// Package strsim implements the text-similarity primitives of the
// structure-aware feature extractors and of blocking: the Levenshtein
// ratio (Eq. 5 of the paper), Jaccard similarity over token sets
// (Eq. 4), and the one tokenizer both Jaccard and blocking share.
//
// All similarity functions return values in [0, 1], with 1 meaning
// identical, and treat two empty strings as identical (similarity 1).
//
// The package has three parts:
//
//   - kernels: LevenshteinRatio and Jaccard, the per-attribute
//     similarities of the LR and JAC extractors. Each runs in scratch
//     from its own sync.Pool, so in steady state a comparison allocates
//     nothing, and each is bit-identical to the classic string-based
//     implementation.
//   - Tokenize: a text's lowercase word tokens, as strings.
//   - Interner and Builder: a shared, concurrency-safe token-to-ID map,
//     and single-goroutine builders that tokenize several texts into one
//     scratch buffer and hand their tokens out as sorted distinct IDs
//     (the token blocker) or as one FNV-64a hash each (MinHash, whose
//     signature minima need neither an interner nor deduplication).
package strsim

import (
	"bytes"
	"slices"
	"sync"
	"unicode"
	"unicode/utf8"
)

// span is one token's byte range [lo, hi) in a tokenizer buffer.
type span struct{ lo, hi int }

func (s span) of(buf []byte) []byte { return buf[s.lo:s.hi] }

// compare orders two tokens of buf by their bytes. Tokens are never
// empty, and most differ in their first byte, which is compared inline.
func (s span) compare(buf []byte, t span) int {
	if c, d := buf[s.lo], buf[t.lo]; c != d {
		return int(c) - int(d)
	}
	return bytes.Compare(s.of(buf), t.of(buf))
}

// tokenRune lowercases r and reports whether the result belongs in a
// token: a letter or a digit.
func tokenRune(r rune) (rune, bool) {
	r = unicode.ToLower(r)
	return r, unicode.IsLetter(r) || unicode.IsDigit(r)
}

// asciiToken maps each ASCII byte to its lowercase form when it
// belongs in a token, and to 0 when it separates tokens: tokenRune,
// tabulated for the tokenizer's fast path.
var asciiToken = func() (t [utf8.RuneSelf]byte) {
	for c := range t {
		if r, ok := tokenRune(rune(c)); ok {
			t[c] = byte(r)
		}
	}
	return t
}()

// appendTokens is the tokenizer. It lowercases text rune by rune,
// splits it on every rune that is neither a letter nor a digit, appends
// each token's bytes to buf and its range in buf to spans, and returns
// both. Invalid UTF-8 decodes to U+FFFD, a separator.
func appendTokens(text string, buf []byte, spans []span) ([]byte, []span) {
	lo := len(buf)
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			i++
			if c = asciiToken[c]; c != 0 {
				buf = append(buf, c)
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
			if r, ok := tokenRune(r); ok {
				buf = utf8.AppendRune(buf, r)
				continue
			}
		}
		if len(buf) > lo {
			spans = append(spans, span{lo, len(buf)})
			lo = len(buf)
		}
	}
	if len(buf) > lo {
		spans = append(spans, span{lo, len(buf)})
	}
	return buf, spans
}

// Tokenize splits s into lowercase word tokens on any non-letter/non-digit
// boundary: the tokens Jaccard and the blockers compare, as strings.
// The semantic extractor hashes them.
func Tokenize(s string) []string {
	buf, spans := appendTokens(s, make([]byte, 0, 128), make([]span, 0, 32))
	lowered := string(buf)
	toks := make([]string, len(spans))
	for i, sp := range spans {
		toks[i] = lowered[sp.lo:sp.hi]
	}
	return toks
}

// maxTokenScratch is the largest token buffer (in bytes) the Jaccard
// pool retains; a larger one is dropped after use. A span holds at
// least one byte, so the cap bounds the span slice too.
const maxTokenScratch = 1 << 14

// tokenScratch is Jaccard's pooled tokenizer output.
type tokenScratch struct {
	buf   []byte
	spans []span
}

var jaccardPool = sync.Pool{New: func() any { return new(tokenScratch) }}

// Jaccard returns the Jaccard similarity (Eq. 4) between the token sets of
// a and b: |A ∩ B| / |A ∪ B|. Two strings with no tokens yield 1.
//
// Both operands are tokenized into one pooled buffer; each operand's
// tokens are sorted and deduplicated by their bytes and the
// intersection is counted by a merge, so the integer counts — and the
// result — equal those of a map-based token-set implementation.
func Jaccard(a, b string) float64 {
	sc := jaccardPool.Get().(*tokenScratch)
	buf, spans := appendTokens(a, sc.buf[:0], sc.spans[:0])
	na := len(spans)
	buf, spans = appendTokens(b, buf, spans)
	ta, tb := sortedUnique(buf, spans[:na]), sortedUnique(buf, spans[na:])
	inter := 0
	for i, j := 0, 0; i < len(ta) && j < len(tb); {
		switch c := ta[i].compare(buf, tb[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	sc.buf, sc.spans = buf, spans
	if cap(buf) <= maxTokenScratch {
		jaccardPool.Put(sc)
	}
	union := len(ta) + len(tb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// sortedUnique sorts spans by their token bytes in buf and drops
// repeated tokens, in place.
func sortedUnique(buf []byte, spans []span) []span {
	slices.SortFunc(spans, func(x, y span) int { return x.compare(buf, y) })
	return slices.CompactFunc(spans, func(x, y span) bool { return bytes.Equal(x.of(buf), y.of(buf)) })
}
