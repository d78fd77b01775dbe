package strsim

import "sync"

// maxLevScratch is the widest DP row (in cells) the Levenshtein pool
// retains. Wider rows are allocated fresh and dropped after use, so one
// pathological long string cannot pin a huge buffer in the pool.
const maxLevScratch = 4096

// levPool holds one allocation for both DP rows.
var levPool = sync.Pool{New: func() any { return new([]int32) }}

// runeView is a rune-indexable view over either a byte string (pure
// ASCII, the fast path) or a decoded rune slice. The at method is small
// enough to inline, so the DP inner loop pays no interface dispatch.
type runeView struct {
	s  string
	rs []rune
	n  int
}

func (v runeView) at(i int) rune {
	if v.rs != nil {
		return v.rs[i]
	}
	return rune(v.s[i])
}

// stringView builds a runeView over a plain string, decoding to runes
// only when the string is not pure ASCII.
func stringView(s string) runeView {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			rs := []rune(s)
			return runeView{rs: rs, n: len(rs)}
		}
	}
	return runeView{s: s, n: len(s)}
}

// LevenshteinRatio returns the paper's LR similarity (Eq. 5):
//
//	LR(x, y) = 1 - LED(x, y) / (len(x) + len(y))
//
// where LED is the Levenshtein edit distance and the denominator is the sum
// of the rune lengths. Two empty strings yield 1, as do any two equal
// strings (short-circuited: on dirty-but-overlapping ER data many
// aligned attribute values match exactly, and the O(n) equality check
// dodges their O(n^2) DP).
//
// The DP keeps the shorter operand as the row dimension, exactly like
// the classic implementation, so results are bit-identical; its two
// rows come from a pool, so ASCII comparisons allocate nothing in
// steady state.
func LevenshteinRatio(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := stringView(a), stringView(b)
	if ra.n == 0 || rb.n == 0 {
		return 0 // LED is the other operand's length
	}
	if rb.n > ra.n {
		ra, rb = rb, ra
	}
	rows := levPool.Get().(*[]int32)
	if cap(*rows) < 2*(rb.n+1) {
		*rows = make([]int32, 2*(rb.n+1))
	}
	prev, cur := (*rows)[:rb.n+1], (*rows)[rb.n+1:2*(rb.n+1)]
	for j := range prev {
		prev[j] = int32(j)
	}
	for i := 1; i <= ra.n; i++ {
		cur[0] = int32(i)
		ca := ra.at(i - 1)
		for j := 1; j <= rb.n; j++ {
			cost := int32(1)
			if ca == rb.at(j-1) {
				cost = 0
			}
			d := prev[j] + 1
			if v := cur[j-1] + 1; v < d {
				d = v
			}
			if v := prev[j-1] + cost; v < d {
				d = v
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	d := prev[rb.n]
	if cap(*rows) <= 2*maxLevScratch {
		levPool.Put(rows)
	}
	return 1 - float64(d)/float64(ra.n+rb.n)
}
