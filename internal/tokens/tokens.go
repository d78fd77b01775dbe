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

import (
	"unicode"
	"unicode/utf8"
)

// Counter segments text into subword tokens and counts them. The zero
// value is not usable; construct with NewCounter.
type Counter struct {
	vocab map[string]bool
	// longest[a][b] is the byte length of the longest vocabulary entry
	// that begins with bytes a, b (0 if none), bounding the greedy scan.
	longest [256][256]uint8
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
		if l := &c.longest[p[0]][p[1]]; len(p) > int(*l) {
			*l = uint8(len(p))
		}
	}
	return c
}

// shared is the package-level counter behind Count.
var shared = NewCounter()

// Count returns the number of subword tokens in s using the default
// vocabulary. It is safe for concurrent use.
func Count(s string) int { return shared.Count(s) }

// wordBuf is the size of Count's stack buffer for the lowercased word
// being read; a longer word grows it on the heap.
const wordBuf = 64

// Count returns the number of subword tokens in s. Words are segmented
// by greedy longest-match against the vocabulary with a chunked
// fallback so that a word of length L yields at most ceil(L/4)+1 pieces
// on vocabulary misses (matching BPE behaviour on unknown words: chunks,
// not one token per character). A word of at most 4 bytes, or one in
// the vocabulary, is one token. Digits group into runs of up to 3 per
// token and punctuation into runs of up to 2. Count builds no pieces and
// allocates nothing unless a word is longer than wordBuf bytes.
func (c *Counter) Count(s string) int {
	var buf [wordBuf]byte
	word := buf[:0]
	n := 0
	// runKind is the class of the last character read outside a word;
	// runLen counts the characters of a digit or punctuation run that
	// its last token has covered.
	runKind, runLen := uint8(space), 0
	for i := 0; i < len(s); {
		var class uint8
		if b := s[i]; b < utf8.RuneSelf {
			i++
			if class = asciiClass[b]; class == letter {
				word = append(word, b|0x20)
			}
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			if class = classOf(r); class == letter {
				word = utf8.AppendRune(word, unicode.ToLower(r))
			}
		}
		if class != letter && len(word) > 0 {
			n += c.countWord(word)
			word = word[:0]
		}
		switch {
		case class == digit && (runKind != digit || runLen == 3):
			// Digits group in runs of up to 3 per token, like GPT BPE.
			n++
			runLen = 0
		case class == punct && (runKind != punct || runLen == 2):
			// Punctuation: each run counts once per two characters.
			n++
			runLen = 0
		}
		runKind = class
		runLen++
	}
	if len(word) > 0 {
		n += c.countWord(word)
	}
	return n
}

// Character classes, in the order Count tests a character for them.
const (
	punct = iota // none of the others
	letter
	digit
	space
)

// classOf returns the class of r.
func classOf(r rune) uint8 {
	switch {
	case unicode.IsLetter(r):
		return letter
	case unicode.IsDigit(r):
		return digit
	case unicode.IsSpace(r):
		return space
	}
	return punct
}

// asciiClass is classOf of each ASCII character.
var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for r := range t {
		t[r] = classOf(rune(r))
	}
	return t
}()

// countWord counts the pieces of a greedy segmentation of a lowercase
// word against the vocabulary: at each byte offset the longest entry of
// at least 2 bytes, else a chunk of up to 5 bytes, emulating BPE
// byte-fallback grouping rather than per-character explosion.
func (c *Counter) countWord(w []byte) int {
	if len(w) <= 4 || len(w) <= int(c.longest[w[0]][w[1]]) && c.vocab[string(w)] {
		return 1
	}
	n := 0
	for i := 0; i < len(w); n++ {
		l := 0
		if i+1 < len(w) {
			l = min(len(w)-i, int(c.longest[w[i]][w[i+1]]))
		}
		for l >= 2 && !c.vocab[string(w[i:i+l])] {
			l--
		}
		if l < 2 {
			l = min(5, len(w)-i)
		}
		i += l
	}
	return n
}
