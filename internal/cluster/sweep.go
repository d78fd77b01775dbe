package cluster

import (
	"math"
	"math/bits"

	"batcher/internal/bitrel"
	"batcher/internal/feature"
	"batcher/internal/workpool"
)

// Sweep evaluates dist once per unordered pair of distinct values and
// returns the threshold relations asked for, each over the n points by
// the n points:
//
//   - withinRows, when within is set: dist <= eps, DBSCAN's
//     ε-neighbourhood (DBSCANRows reads it);
//   - belowRows, when below is set: dist < t, the cover relation of a
//     pool that is its own question set (setcover.GreedyRows reads it).
//
// A relation not asked for is returned nil and its threshold ignored.
//
// Both are relations over the same distances, so one pass serves them.
// The points are grouped by exact value (length and the float64 bits of
// every component) into U classes, and dist is called once for every
// unordered pair of the classes' first points, U(U+1)/2 calls. That is
// exact because a feature.Distance is a function of the bits of its two
// vectors: every member of a class is at the same distance from any
// point, and dist(r, r) of a class's first point r is the distance of
// every pair inside the class. So the members of a class have the same
// row, and each relation stores it once: U rows of bitrel.Words(n)
// words, which every member reads (bitrel.Shared). When every point is
// its own class, each has its own row.
//
// The distance of classes a and b is read for a <= b only and each hit
// sets bit (a, b) and its mirror (b, a). That is the relation the full
// scan defines exactly when dist is symmetric, which feature.Distance
// requires. The diagonal is evaluated like any other pair, never assumed
// to be 0: a distance may put a point outside its own neighbourhood
// (CosineDistance does, for the zero vector).
//
// Sweep measures and thresholds each tile as it goes and keeps no
// distance: a window that also calibrates its thresholds on all of its
// points measures them once with Measure and sweeps the Distances.
func Sweep(points []feature.Vector, dist feature.Distance, eps float64, within bool, t float64, below bool) (withinRows, belowRows *bitrel.Rel) {
	if !within && !below {
		return nil, nil
	}
	vc := groupByValue(points)
	reps := points
	if len(vc.first) < len(points) {
		reps = vc.reps(points)
	}
	return sweepClasses(&vc, reps, dist, nil, eps, within, t, below)
}

// sweepClasses sweeps the classes' first points reps with sweepTiles and
// spreads the class relations over the points when some class has more
// than one.
func sweepClasses(vc *valueClasses, reps []feature.Vector, dist feature.Distance, buf []float64, eps float64, within bool, t float64, below bool) (withinRows, belowRows *bitrel.Rel) {
	if !within && !below {
		return nil, nil
	}
	withinRows, belowRows = sweepTiles(reps, dist, buf, eps, within, t, below)
	if len(vc.first) == len(vc.of) {
		return withinRows, belowRows
	}
	vc.listMembers()
	if within {
		withinRows = vc.spread(withinRows)
	}
	if below {
		belowRows = vc.spread(belowRows)
	}
	return withinRows, belowRows
}

// sweepTiles is the tile loop over the U points as given: it reads
// dist(i, j), i <= j, from buf at classRowStart(U, i)+j-i when buf is
// not nil (a Distances buffer of these points) and calls dist otherwise.
//
// The pass runs across workpool workers, one task per block of 64 rows,
// so dist must be safe for concurrent calls. Task b visits the 64 x 64
// tiles (b, c) for c >= b and writes each tile's words and those of its
// mirror (c, b); every word of a matrix therefore belongs to exactly one
// task — the one numbered min(row block, column word) — and the result
// does not depend on how the tasks were scheduled.
func sweepTiles(points []feature.Vector, dist feature.Distance, buf []float64, eps float64, within bool, t float64, below bool) (withinRows, belowRows *bitrel.Rel) {
	n := len(points)
	words := bitrel.Words(n)
	if within {
		withinRows = bitrel.New(n, n)
	}
	if below {
		belowRows = bitrel.New(n, n)
	}
	workpool.For(workpool.Workers(), words, func(bi int) {
		i0, i1 := bi<<6, min(bi<<6+64, n)
		// seg holds one row's distances to the columns of one tile.
		var seg [64]float64
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
				row := seg[:j1-j]
				if buf == nil {
					for k := range row {
						row[k] = dist(a, points[j+k])
					}
				} else {
					copy(row, buf[classRowStart(n, i)+j-i:])
				}
				for k, d := range row {
					c := j + k - j0
					if within && d <= eps {
						fw |= 1 << c
						mw[c] |= ibit
					}
					if below && d < t {
						fb |= 1 << c
						mb[c] |= ibit
					}
				}
				if bj == bi {
					// The diagonal tile is its own mirror. Row i's mirror
					// bits come from rows <= i, all swept by now.
					fw |= mw[i-i0]
					fb |= mb[i-i0]
				}
				if within {
					withinRows.Row(i)[bj] = fw
				}
				if below {
					belowRows.Row(i)[bj] = fb
				}
			}
			if bj == bi {
				continue
			}
			for j := j0; j < j1; j++ {
				if within {
					withinRows.Row(j)[bi] = mw[j-j0]
				}
				if below {
					belowRows.Row(j)[bi] = mb[j-j0]
				}
			}
		}
	})
	return withinRows, belowRows
}

// valueClasses partitions a point set by exact value: two points share a
// class when they have the same length and the same math.Float64bits in
// every component. -0 and +0, or two NaN payloads, are different values
// here; that only shares less.
type valueClasses struct {
	// of[i] is point i's class. Classes are numbered in order of first
	// occurrence, so first[c], class c's first point, ascends with c.
	of, first []int32
	// start and member list every class's points in ascending order:
	// class c's are member[start[c]:start[c+1]]. Set by listMembers.
	start, member []int32
}

// groupByValue numbers the points' classes through an open-addressed
// hash table of class numbers: a hash and a comparison or two per point,
// and no allocation per class.
func groupByValue(points []feature.Vector) valueClasses {
	n := len(points)
	vc := valueClasses{of: make([]int32, n), first: make([]int32, 0, n)}
	size := 1
	for size < 2*n {
		size <<= 1
	}
	// slots holds class+1, or 0 for an empty slot, at a load of at most
	// one half.
	slots := make([]int32, size)
	mask := uint64(size - 1)
	for i, v := range points {
		s := valueHash(v) & mask
		for {
			c := slots[s] - 1
			if c < 0 {
				c = int32(len(vc.first))
				slots[s] = c + 1
				vc.first = append(vc.first, int32(i))
			} else if !sameBits(points[vc.first[c]], v) {
				s = (s + 1) & mask
				continue
			}
			vc.of[i] = c
			break
		}
	}
	return vc
}

// valueHash hashes a vector's length and component bits.
func valueHash(v feature.Vector) uint64 {
	h := uint64(len(v))
	for _, x := range v {
		h = (bits.RotateLeft64(h, 23) ^ math.Float64bits(x)) * 0x9e3779b97f4a7c15
	}
	// The splitmix64 finalizer, so that the low bits the table indexes by
	// depend on every bit of every component.
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// reps returns every class's first point, in class order.
func (vc *valueClasses) reps(points []feature.Vector) []feature.Vector {
	reps := make([]feature.Vector, len(vc.first))
	for c, i := range vc.first {
		reps[c] = points[i]
	}
	return reps
}

// sameBits reports whether a and b are the same value: equal lengths and
// bit-identical components.
func sameBits(a, b feature.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// listMembers sets start and member by a counting sort of of.
func (vc *valueClasses) listMembers() {
	u := len(vc.first)
	// Class c is counted at start[c+2]; after the prefix sums start[c+1]
	// is where its members begin, and placing them advances it to where
	// they end, which is where class c+1's begin.
	start := make([]int32, u+2)
	for _, c := range vc.of {
		start[c+2]++
	}
	for k := 2; k < len(start); k++ {
		start[k] += start[k-1]
	}
	vc.member = make([]int32, len(vc.of))
	for i, c := range vc.of {
		vc.member[start[c+1]] = int32(i)
		start[c+1]++
	}
	vc.start = start[:u+1]
}

// spread turns a relation over the U classes into the relation over
// their n members: two points are related exactly when their classes
// are, so the result stores one row per class and every member reads
// its class's row. Class c's row gets one bit per member of
// each class its class row relates it to, so the cost is the bits set
// in the U stored rows. There is one task per class, and it writes only
// its class's row.
func (vc *valueClasses) spread(classRows *bitrel.Rel) *bitrel.Rel {
	rows := bitrel.Shared(vc.of, len(vc.first), len(vc.of))
	workpool.For(workpool.Workers(), len(vc.first), func(c int) {
		row := rows.Row(int(vc.first[c]))
		for w, m := range classRows.Row(c) {
			for ; m != 0; m &= m - 1 {
				d := w<<6 | bits.TrailingZeros64(m)
				for _, j := range vc.member[vc.start[d]:vc.start[d+1]] {
					row[j>>6] |= 1 << (j & 63)
				}
			}
		}
	})
	return rows
}
