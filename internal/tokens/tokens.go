// Package tokens provides subword token counting for prompt budgeting and
// API cost accounting.
//
// Proprietary LLM APIs bill per BPE token. Offline we cannot ship OpenAI's
// exact merges table, so this package implements a deterministic greedy
// subword segmenter over a built-in vocabulary of frequent English
// fragments. Its counts track the usual "~4 characters or ~0.75 words per
// token" rule of thumb that the paper's own cost estimates use (90 tokens
// for ~60 words), which is what matters for reproducing the paper's cost
// ratios: all methods are billed with the same meter.
package tokens

import "unicode"

// Counter segments text into subword tokens and counts them. The zero
// value is not usable; construct with NewCounter.
type Counter struct {
	vocab map[string]bool
	// maxPiece is the longest vocabulary entry, bounding the greedy scan.
	maxPiece int
}

// defaultVocab lists common English subwords and fragments. Greedy
// longest-match against this vocabulary yields realistic per-word token
// counts: short frequent words are one token, long rare words split into
// several pieces.
var defaultVocab = []string{
	// Whole frequent words.
	"the", "and", "for", "are", "this", "that", "with", "from", "same",
	"yes", "no", "not", "question", "answer", "task", "entity", "entities",
	"match", "matching", "different", "identical", "record", "records",
	"product", "title", "name", "price", "brand", "year", "type", "city",
	"phone", "address", "album", "artist", "genre", "time", "released",
	"description", "category", "manufacturer", "model", "version", "author",
	"authors", "venue", "abv", "beer", "brewery", "style", "song", "music",
	"restaurant", "food", "street", "class", "copyright", "duplicate",
	"deduplication", "resolution", "refer", "object", "real", "world",
	"following", "pairs", "pair", "each", "whether", "given", "consider",
	// Common prefixes/suffixes and fragments.
	"ing", "ion", "tion", "ation", "ment", "ness", "able", "ible", "ally",
	"ed", "er", "est", "ly", "un", "re", "pre", "pro", "con", "com", "de",
	"dis", "en", "ex", "in", "im", "inter", "micro", "multi", "over",
	"semi", "sub", "super", "trans", "under", "anti", "auto", "co",
	"al", "an", "ar", "as", "at", "ea", "el", "en", "es", "ic", "is",
	"it", "le", "nd", "nt", "on", "or", "ou", "ra", "ri", "ro", "st",
	"te", "th", "ti", "to", "ve",
}

// NewCounter returns a Counter with the default vocabulary.
func NewCounter() *Counter {
	c := &Counter{vocab: make(map[string]bool, len(defaultVocab))}
	for _, p := range defaultVocab {
		c.vocab[p] = true
		if len(p) > c.maxPiece {
			c.maxPiece = len(p)
		}
	}
	return c
}

// shared is the package-level counter behind Count.
var shared = NewCounter()

// Count returns the number of subword tokens in s using the default
// vocabulary. It is safe for concurrent use.
func Count(s string) int { return shared.Count(s) }

// Count returns the number of subword tokens in s.
func (c *Counter) Count(s string) int { return len(c.Split(s)) }

// Split segments s into subword tokens. Words are segmented by greedy
// longest-match against the vocabulary with single-character fallback
// capped so that a word of length L yields at most ceil(L/4)+1 pieces on
// vocabulary misses (matching BPE behaviour on unknown words: chunks, not
// one token per character). Punctuation and digits group into small runs.
func (c *Counter) Split(s string) []string {
	var out []string
	var word []rune
	flush := func() {
		if len(word) > 0 {
			out = append(out, c.splitWord(string(word))...)
			word = word[:0]
		}
	}
	runLen := 0
	var runKind int // 0 none, 1 digit, 2 punct
	flushRun := func() { runLen, runKind = 0, 0 }
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			flushRun()
			word = append(word, unicode.ToLower(r))
		case unicode.IsDigit(r):
			flush()
			// Digits group in runs of up to 3 per token, like GPT BPE.
			if runKind != 1 || runLen == 3 {
				out = append(out, "<num>")
				runKind, runLen = 1, 0
			}
			runLen++
		case unicode.IsSpace(r):
			flush()
			flushRun()
		default:
			flush()
			// Punctuation: each run of identical class counts once per
			// two characters.
			if runKind != 2 || runLen == 2 {
				out = append(out, "<punct>")
				runKind, runLen = 2, 0
			}
			runLen++
		}
	}
	flush()
	return out
}

// splitWord greedily segments a lowercase word against the vocabulary.
func (c *Counter) splitWord(w string) []string {
	if len(w) <= 4 || c.vocab[w] {
		return []string{w}
	}
	var pieces []string
	i := 0
	for i < len(w) {
		matched := ""
		maxLen := len(w) - i
		if maxLen > c.maxPiece {
			maxLen = c.maxPiece
		}
		for l := maxLen; l >= 2; l-- {
			if c.vocab[w[i:i+l]] {
				matched = w[i : i+l]
				break
			}
		}
		if matched == "" {
			// Fallback: take a chunk of up to 5 characters, emulating BPE
			// byte-fallback grouping rather than per-character explosion.
			l := 5
			if l > len(w)-i {
				l = len(w) - i
			}
			matched = w[i : i+l]
		}
		pieces = append(pieces, matched)
		i += len(matched)
	}
	return pieces
}
