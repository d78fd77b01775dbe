package cluster

import (
	"batcher/internal/feature"
	"batcher/internal/workpool"
)

// RowWords is the number of 64-bit words in one row of an n-column bit
// matrix.
func RowWords(n int) int { return (n + 63) / 64 }

// Sweep evaluates dist once per unordered pair of points and returns the
// threshold relations asked for as n x n bit matrices, each one
// allocation of n rows of RowWords(n) words with bit j of row i at
// rows[i*RowWords(n)+j>>6] >> (j&63):
//
//   - withinRows, when within is set: dist <= eps, DBSCAN's
//     ε-neighbourhood (DBSCANRows reads it);
//   - belowRows, when below is set: dist < t, the cover relation of a
//     pool that is its own question set (setcover.GreedyRows reads it).
//
// A relation not asked for is returned nil and its threshold ignored.
//
// Both are relations over the same distances, so one pass serves them:
// dist(points[i], points[j]) is called for i <= j only — n(n+1)/2 calls —
// and each hit sets bit (i, j) and its mirror (j, i). That is the
// relation the full n x n scan defines exactly when dist is symmetric,
// which feature.Distance requires. The diagonal is evaluated like any
// other pair, never assumed to be 0: a distance may put a point outside
// its own neighbourhood (CosineDistance does, for the zero vector).
//
// The pass runs across workpool workers, one task per block of 64 rows,
// so dist must be safe for concurrent calls. Task b visits the 64 x 64
// tiles (b, c) for c >= b and writes each tile's words and those of its
// mirror (c, b); every word of a matrix therefore belongs to exactly one
// task — the one numbered min(row block, column word) — and the result
// does not depend on how the tasks were scheduled.
func Sweep(points []feature.Vector, dist feature.Distance, eps float64, within bool, t float64, below bool) (withinRows, belowRows []uint64) {
	if !within && !below {
		return nil, nil
	}
	n := len(points)
	words := RowWords(n)
	if within {
		withinRows = make([]uint64, n*words)
	}
	if below {
		belowRows = make([]uint64, n*words)
	}
	workpool.For(workpool.Workers(), words, func(bi int) {
		i0, i1 := bi<<6, min(bi<<6+64, n)
		for bj := bi; bj < words; bj++ {
			j0, j1 := bj<<6, min(bj<<6+64, n)
			// mw[j-j0] and mb[j-j0] collect the tile's mirror words: bit
			// i-i0 of row j.
			var mw, mb [64]uint64
			for i := i0; i < i1; i++ {
				a, ibit := points[i], uint64(1)<<(i-i0)
				var fw, fb uint64
				j := j0
				if bj == bi {
					j = i
				}
				for ; j < j1; j++ {
					d := dist(a, points[j])
					if within && d <= eps {
						fw |= 1 << (j - j0)
						mw[j-j0] |= ibit
					}
					if below && d < t {
						fb |= 1 << (j - j0)
						mb[j-j0] |= ibit
					}
				}
				if bj == bi {
					// The diagonal tile is its own mirror. Row i's mirror
					// bits come from rows <= i, all swept by now.
					fw |= mw[i-i0]
					fb |= mb[i-i0]
				}
				if within {
					withinRows[i*words+bj] = fw
				}
				if below {
					belowRows[i*words+bj] = fb
				}
			}
			if bj == bi {
				continue
			}
			for j := j0; j < j1; j++ {
				if within {
					withinRows[j*words+bi] = mw[j-j0]
				}
				if below {
					belowRows[j*words+bi] = mb[j-j0]
				}
			}
		}
	})
	return withinRows, belowRows
}
