package profile

import "sync"

// Pooled-scratch Levenshtein. The DP rows are recycled through a
// sync.Pool so steady-state comparisons allocate nothing, with a size
// cap so one pathological long string cannot pin a huge buffer in the
// pool forever.

// maxLevScratch is the widest DP row (in cells) the pool will retain.
// Wider rows are allocated fresh and dropped after use.
const maxLevScratch = 4096

// levScratch is one pooled allocation holding both DP rows.
type levScratch struct {
	rows []int32
}

var levPool = sync.Pool{
	New: func() any { return &levScratch{} },
}

// getLevRows returns two zero-length-agnostic DP rows of n cells each,
// backed by pooled storage where possible.
func getLevRows(n int) (*levScratch, []int32, []int32) {
	s := levPool.Get().(*levScratch)
	if cap(s.rows) < 2*n {
		s.rows = make([]int32, 2*n)
	}
	rows := s.rows[:2*n]
	return s, rows[:n], rows[n:]
}

// putLevRows returns scratch to the pool and reports whether it was
// retained; oversized scratch is dropped so the pool's steady-state
// footprint stays bounded.
func putLevRows(s *levScratch) bool {
	if cap(s.rows) > 2*maxLevScratch {
		return false
	}
	levPool.Put(s)
	return true
}

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

// LevenshteinRatioStrings is the paper's LR similarity (Eq. 5) over
// plain strings: 1 - LED(a, b) / (len(a) + len(b)), over rune lengths.
// Two empty strings yield 1, as do any two equal strings
// (short-circuited: on dirty-but-overlapping ER data many aligned
// attribute values match exactly, and the O(n) equality check dodges
// their O(n^2) DP).
func LevenshteinRatioStrings(a, b string) float64 {
	if a == b {
		return 1
	}
	va, vb := stringView(a), stringView(b)
	if va.n == 0 && vb.n == 0 {
		return 1
	}
	d := levViews(va, vb)
	return 1 - float64(d)/float64(va.n+vb.n)
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

// levViews is the shared DP. It keeps the shorter operand as the row
// dimension, exactly like the classic implementation, so results are
// bit-identical.
func levViews(ra, rb runeView) int {
	if ra.n == 0 {
		return rb.n
	}
	if rb.n == 0 {
		return ra.n
	}
	// Keep the shorter string in rb to bound the row width.
	if rb.n > ra.n {
		ra, rb = rb, ra
	}
	scratch, prev, cur := getLevRows(rb.n + 1)
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
	d := int(prev[rb.n])
	putLevRows(scratch)
	return d
}
