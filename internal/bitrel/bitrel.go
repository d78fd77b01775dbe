// Package bitrel holds a binary relation between row indices and
// column indices as bit rows. Row i of a relation over n columns is
// Words(n) words, bit j of it at word j>>6, bit j&63, and no bit is set
// past column n-1.
//
// Equal rows may be stored once: a relation made by Shared stores one
// row per class of rows and reads row i from its class's row, so it
// costs Words(n) words per class plus one int32 per row instead of
// Words(n) words per row. Row, Has, Counts and Restrict read both kinds
// the same way; only this package knows which one it holds.
package bitrel

import (
	"math/bits"
	"slices"
)

// Words is the number of 64-bit words in one row of a relation over n
// columns.
func Words(n int) int { return (n + 63) / 64 }

// Rel is a relation of Len rows over Cols columns.
type Rel struct {
	rows, cols, words int
	// bits holds the stored rows, words words each.
	bits   []uint64
	stored int
	// rowOf[i] is the stored row row i reads; nil means row i is stored
	// row i.
	rowOf []int32
}

// New returns an empty relation of rows rows over cols columns, every
// row stored on its own.
func New(rows, cols int) *Rel {
	w := Words(cols)
	return &Rel{rows: rows, cols: cols, words: w, stored: rows, bits: make([]uint64, rows*w)}
}

// Shared returns an empty relation of len(rowOf) rows over cols columns
// in which row i is stored row rowOf[i], one of stored rows. Rows that
// read the same stored row are one row: writing through Row(i) writes
// every row that shares it. rowOf is kept, not copied, and must not be
// changed afterwards.
func Shared(rowOf []int32, stored, cols int) *Rel {
	w := Words(cols)
	return &Rel{rows: len(rowOf), cols: cols, words: w, stored: stored, bits: make([]uint64, stored*w), rowOf: rowOf}
}

// Len returns the number of rows.
func (r *Rel) Len() int { return r.rows }

// Cols returns the number of columns.
func (r *Rel) Cols() int { return r.cols }

// Row returns the Words(Cols()) words of row i. The slice is the
// relation's own storage, shared with every row stored with it.
func (r *Rel) Row(i int) []uint64 {
	if r.rowOf != nil {
		i = int(r.rowOf[i])
	}
	return r.bits[i*r.words : (i+1)*r.words]
}

// Has reports whether row i holds column j.
func (r *Rel) Has(i, j int) bool {
	return r.Row(i)[j>>6]>>(j&63)&1 != 0
}

// Counts returns the number of columns every row holds, counting each
// stored row once, in dst grown to Len (its contents are overwritten;
// nil allocates).
func (r *Rel) Counts(dst []int) []int {
	dst = slices.Grow(dst[:0], r.rows)[:r.rows]
	if r.rowOf == nil {
		for i := range dst {
			dst[i] = r.count(i)
		}
		return dst
	}
	stored := make([]int, r.stored)
	for s := range stored {
		stored[s] = r.count(s)
	}
	for i, s := range r.rowOf {
		dst[i] = stored[s]
	}
	return dst
}

// count is the number of columns stored row s holds.
func (r *Rel) count(s int) int {
	n := 0
	for _, w := range r.bits[s*r.words : (s+1)*r.words] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Restrict returns the relation of r between the rows listed in rows and
// the columns listed in cols: row a of the result holds column b iff row
// rows[a] of r holds column cols[b]. The result is dst, overwritten and
// reusing its storage when it has room, so a caller restricting once
// per batch into one dst allocates only while that dst grows.
func (r *Rel) Restrict(dst *Rel, rows, cols []int) *Rel {
	w := Words(len(cols))
	*dst = Rel{rows: len(rows), cols: len(cols), words: w, stored: len(rows),
		bits: slices.Grow(dst.bits[:0], len(rows)*w)[:len(rows)*w]}
	clear(dst.bits)
	for a, i := range rows {
		row := dst.Row(a)
		for b, j := range cols {
			if r.Has(i, j) {
				row[b>>6] |= 1 << (b & 63)
			}
		}
	}
	return dst
}
