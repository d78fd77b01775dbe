package profile

import "slices"

// One-shot comparison helpers: the strsim string wrappers funnel here.
// They run entirely in pooled builder scratch — tokenizing into reused
// buffers against the pooled interner, merging in place — so a one-shot
// string comparison allocates nothing in steady state (only genuinely
// new vocabulary pays interner inserts), while reproducing the exact
// arithmetic of the classic map-based implementations.

// uniquePair tokenizes both operands into the builder's two unique-ID
// scratches. Both slices are valid until the next builder call.
func (b *Builder) uniquePair(x, y string) (tx, ty []uint32) {
	b.seq = b.appendTokenSeq(x, b.seq[:0])
	b.uniq = sortedUnique(b.seq, b.uniq[:0])
	b.seqB = b.appendTokenSeq(y, b.seqB[:0])
	b.uniqB = sortedUnique(b.seqB, b.uniqB[:0])
	return b.uniq, b.uniqB
}

// sortedUnique appends the distinct IDs of seq to dst in ascending
// order.
func sortedUnique(seq, dst []uint32) []uint32 {
	dst = append(dst, seq...)
	slices.Sort(dst)
	return slices.Compact(dst)
}

// intersectCount returns |a ∩ b| for two ascending ID slices.
func intersectCount(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// JaccardStrings is the one-shot token-set Jaccard similarity.
func JaccardStrings(x, y string) float64 {
	b := Scratch()
	defer b.Release()
	tx, ty := b.uniquePair(x, y)
	if len(tx) == 0 && len(ty) == 0 {
		return 1
	}
	inter := intersectCount(tx, ty)
	union := len(tx) + len(ty) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
