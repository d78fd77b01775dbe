package strsim

import (
	"math/bits"
	"slices"
	"sync"
	"unicode/utf8"
)

// maxLevScratch is the largest mask buffer, in 64-bit words, the
// Levenshtein pool retains: exactly the buffer of a 2 048-rune (32-word)
// ASCII pattern, whose 128 byte rows, zero row and two delta vectors
// are 32 words each. A larger buffer is allocated fresh and dropped
// after use, so one pathological long string cannot pin a huge buffer in
// the pool.
const maxLevScratch = (utf8.RuneSelf + 3) * 32

// levPool holds one comparison's scratch.
var levPool = sync.Pool{New: func() any { return new(levScratch) }}

// levScratch is the working memory of one edit-distance computation
// over a pattern of w words (64 pattern runes per word).
type levScratch struct {
	// buf is the match-mask table followed by the two w-word vertical
	// delta vectors of a multi-word pattern. The table holds one row of
	// w words per symbol: rows 0..127 for the ASCII bytes, then one per
	// key, then a zero row for every rune the pattern lacks. Bit i of a
	// row is set when pattern rune i is that symbol. All of buf is zero
	// between calls.
	buf []uint64
	// keys are the pattern's distinct non-ASCII runes, sorted.
	keys []rune
}

// LevenshteinRatio returns the paper's LR similarity (Eq. 5):
//
//	LR(x, y) = 1 - LED(x, y) / (len(x) + len(y))
//
// where LED is the Levenshtein edit distance and the denominator is the sum
// of the rune lengths. Two empty strings yield 1, as do any two equal
// strings (short-circuited: on dirty-but-overlapping ER data many
// aligned attribute values match exactly).
//
// LED is computed bit-parallel (Myers 1999, in Hyyrö's 2003 form for
// edit distance): the shorter operand is the pattern, 64 of its runes
// per machine word, and each rune of the other operand advances every
// pattern position at once. It is the same integer the classic DP
// yields, so the ratio is bit-identical to it; the scratch comes from a
// pool, so comparisons allocate nothing in steady state.
func LevenshteinRatio(a, b string) float64 {
	if a == b {
		return 1
	}
	n, asciiA := runeLen(a)
	m, ascii := runeLen(b)
	if n == 0 || m == 0 {
		return 0 // LED is the other operand's length
	}
	text, pat := a, b
	if m > n {
		text, pat, n, m, ascii = b, a, m, n, asciiA
	}
	s := levPool.Get().(*levScratch)
	d := s.distance(pat, text, m, n, ascii)
	if cap(s.buf) <= maxLevScratch {
		levPool.Put(s)
	}
	return 1 - float64(d)/float64(n+m)
}

// runeLen returns the rune count of s and whether s is pure ASCII,
// testing eight bytes at a time.
func runeLen(s string) (int, bool) {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		if w&0x8080808080808080 != 0 {
			return utf8.RuneCountInString(s), false
		}
	}
	for ; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return utf8.RuneCountInString(s), false
		}
	}
	return len(s), true
}

// distance returns the edit distance between pat (m runes, m ≥ 1,
// ASCII-only when ascii is set) and text (n runes), and leaves s.buf
// zero again.
func (s *levScratch) distance(pat, text string, m, n int, ascii bool) int {
	s.keys = s.keys[:0]
	if !ascii {
		for _, r := range pat {
			if r >= utf8.RuneSelf {
				s.keys = append(s.keys, r)
			}
		}
		slices.Sort(s.keys)
		s.keys = slices.Compact(s.keys)
	}
	w := (m + 63) >> 6
	rows := utf8.RuneSelf + len(s.keys) + 1
	if cap(s.buf) < (rows+2)*w {
		s.buf = make([]uint64, (rows+2)*w)
	}
	peq := s.buf[:rows*w]
	if ascii {
		for i := 0; i < len(pat); i++ {
			peq[int(pat[i])*w+i>>6] |= 1 << (uint(i) & 63)
		}
	} else {
		i := 0
		for _, r := range pat {
			peq[s.row(r)*w+i>>6] |= 1 << (uint(i) & 63)
			i++
		}
	}

	var d int
	if w == 1 {
		d = s.oneWord(peq, text, m, n)
	} else {
		d = s.blocks(peq, s.buf[rows*w:(rows+2)*w], text, m, n, w)
	}

	clear(peq)
	return d
}

// row returns the index of r's row in the match-mask table.
func (s *levScratch) row(r rune) int {
	if uint32(r) < utf8.RuneSelf {
		return int(r)
	}
	return s.keyRow(r)
}

// keyRow returns the row of a non-ASCII rune: its key's, or the zero
// row when the pattern does not contain it.
func (s *levScratch) keyRow(r rune) int {
	k, ok := slices.BinarySearch(s.keys, r)
	if !ok {
		k = len(s.keys)
	}
	return utf8.RuneSelf + k
}

// oneWord runs a pattern of m ≤ 64 runes in one word per vector. Bit i
// of vp (vn) is set when D[i+1][j] − D[i][j] is +1 (−1) in the current
// column j of the DP. Each text rune advances the column with Myers'
// update, written with the shifted horizontal +1 vector complemented
// (nhp = ^(hp<<1 | 1)), which takes three operations off the chain each
// rune waits on; blocks spells out the same update. The last column's
// vertical deltas sum to D[m][n] − D[0][n], and D[0][n] = n.
func (s *levScratch) oneWord(peq []uint64, text string, m, n int) int {
	vp, vn := ^uint64(0), uint64(0)
	for _, r := range text {
		x := peq[s.row(r)]
		xv := x | vn
		xh := (((x & vp) + vp) ^ vp) | x
		nhp := ((xh | vp) &^ vn) << 1
		vp, vn = (vp&xh)<<1|nhp&^xv, xv&^nhp
	}
	mask := ^uint64(0) >> (64 - m)
	return n + bits.OnesCount64(vp&mask) - bits.OnesCount64(vn&mask)
}

// blocks runs a pattern of m > 64 runes in w words per vector, carrying
// each word's horizontal delta (hpc: +1, hnc: −1) out of its top bit
// into the next word. delta holds the two vectors and is zero again on
// return.
func (s *levScratch) blocks(peq, delta []uint64, text string, m, n, w int) int {
	vp, vn := delta[:w], delta[w:2*w]
	for b := range vp {
		vp[b] = ^uint64(0)
	}
	for _, r := range text {
		k := s.row(r) * w
		eq := peq[k : k+w]
		vp, vn := vp[:len(eq)], vn[:len(eq)]
		hpc, hnc := uint64(1), uint64(0) // the top row's horizontal delta is +1
		for b, x := range eq {
			pv, mv := vp[b], vn[b]
			xv := x | mv
			x |= hnc
			xh := (((x & pv) + pv) ^ pv) | x
			hp := mv | ^(xh | pv)
			hn := pv & xh
			hp, hpc = hp<<1|hpc, hp>>63
			hn, hnc = hn<<1|hnc, hn>>63
			vp[b] = hn | ^(xv | hp)
			vn[b] = hp & xv
		}
	}
	mask := ^uint64(0) >> (63 - uint(m-1)&63) // the last word's pattern rows
	vp[w-1] &= mask
	vn[w-1] &= mask
	d := n
	for b := range vp {
		d += bits.OnesCount64(vp[b]) - bits.OnesCount64(vn[b])
	}
	clear(delta)
	return d
}
