// Package strsim implements the string similarity primitives used by the
// structure-aware feature extractors: the Levenshtein ratio (Eq. 5 of the
// paper) and Jaccard similarity over token sets (Eq. 4), plus the
// tokenizer both share.
//
// All similarity functions return values in [0, 1], with 1 meaning
// identical, and treat two empty strings as identical (similarity 1).
//
// These string-based entry points are thin wrappers over one-shot
// profiles from internal/profile: each call builds the operand profiles
// in pooled scratch and runs the allocation-free merge kernels. Callers
// comparing the same strings repeatedly (blocking, feature extraction)
// should build profiles once and use the profile kernels directly —
// that is the hot path; these wrappers are the convenience path.
package strsim

import (
	"strings"
	"unicode"

	"batcher/internal/profile"
)

// LevenshteinRatio returns the paper's LR similarity (Eq. 5):
//
//	LR(x, y) = 1 - LED(x, y) / (len(x) + len(y))
//
// where LED is the Levenshtein edit distance and the denominator is the sum
// of the rune lengths. Two empty strings yield 1.
func LevenshteinRatio(a, b string) float64 {
	return profile.LevenshteinRatioStrings(a, b)
}

// Tokenize splits s into lowercase word tokens on any non-letter/non-digit
// boundary. It is the tokenizer used for Jaccard, cosine, and blocking.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Jaccard returns the Jaccard similarity (Eq. 4) between the token sets of
// a and b: |A ∩ B| / |A ∪ B|. Two strings with no tokens yield 1.
func Jaccard(a, b string) float64 {
	return profile.JaccardStrings(a, b)
}
