package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"batcher/internal/bitrel"
	"batcher/internal/feature"
)

// withWorkers runs fn with workpool.Workers() == n.
func withWorkers(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// dbscanScan is DBSCAN as it was written before the neighbourhood became
// bit rows — one full scan of the points per region query, every
// neighbour list appended to the expansion queue — kept as the oracle.
// It calls dist(points[i], points[j]) for every ordered pair it needs,
// so it also checks that evaluating i <= j only loses nothing.
func dbscanScan(points []feature.Vector, dist feature.Distance, eps float64, minPts int) Result {
	n := len(points)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = Noise
	}
	visited := make([]bool, n)
	neighbors := func(i int) []int {
		var ns []int
		for j := 0; j < n; j++ {
			if dist(points[i], points[j]) <= eps {
				ns = append(ns, j)
			}
		}
		return ns
	}
	var queue []int
	k := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		ns := neighbors(i)
		if len(ns) < minPts {
			continue // remains noise unless adopted as a border point
		}
		c := k
		k++
		assign[i] = c
		queue = append(queue[:0], ns...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if !visited[j] {
				visited[j] = true
				njs := neighbors(j)
				if len(njs) >= minPts {
					queue = append(queue, njs...)
				}
			}
			if assign[j] == Noise {
				assign[j] = c
			}
		}
	}
	return Result{Assign: assign, K: k}
}

func sameResult(a, b Result) error {
	if a.K != b.K {
		return fmt.Errorf("K = %d, oracle %d", a.K, b.K)
	}
	if len(a.Assign) != len(b.Assign) {
		return fmt.Errorf("%d assignments, oracle %d", len(a.Assign), len(b.Assign))
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return fmt.Errorf("point %d in cluster %d, oracle %d", i, a.Assign[i], b.Assign[i])
		}
	}
	return nil
}

// geometries are the point sets the exactness tests run on: scattered
// points, a coarse grid (coincident points, many equal distances — eps
// lands exactly on pairwise distances) and, under cosine distance, zero
// vectors that are not their own neighbours.
func geometries(n int, rnd *rand.Rand) map[string][]feature.Vector {
	random := make([]feature.Vector, n)
	grid := make([]feature.Vector, n)
	zeros := make([]feature.Vector, n)
	for i := 0; i < n; i++ {
		random[i] = feature.Vector{rnd.Float64() * 10, rnd.Float64() * 10}
		grid[i] = feature.Vector{float64(rnd.Intn(12)), float64(rnd.Intn(12)) / 2}
		zeros[i] = feature.Vector{float64(rnd.Intn(3)), float64(rnd.Intn(3))}
	}
	return map[string][]feature.Vector{"random": random, "grid": grid, "zeros": zeros}
}

// somePairDistance returns dist of a random pair of pts, so a threshold
// set to it sits exactly on the <= / < boundary of at least that pair
// (and of every pair at the same distance).
func somePairDistance(pts []feature.Vector, dist feature.Distance, rnd *rand.Rand) float64 {
	if len(pts) < 2 {
		return 1
	}
	i := rnd.Intn(len(pts) - 1)
	return dist(pts[i], pts[i+1+rnd.Intn(len(pts)-1-i)])
}

func TestDBSCANMatchesScanOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	sawShared := false
	for _, n := range []int{0, 1, 2, 63, 64, 65, 129, 700} {
		sets := duplicateGeometries(n, rnd)
		for name, pts := range geometries(n, rnd) {
			dist := feature.Distance(feature.Euclidean)
			if name == "zeros" {
				dist = feature.CosineDistance
			}
			sets = append(sets, namedGeometry{name, pts, dist})
		}
		for _, g := range sets {
			pts, dist := g.pts, g.dist
			sawShared = sawShared || distinctVectors(pts) < n
			epss := []float64{0, somePairDistance(pts, dist, rnd), somePairDistance(pts, dist, rnd), 0.9, math.NaN()}
			for _, eps := range epss {
				// The rows Sweep shares among equal vectors, and the same
				// rows copied out to every point.
				within, _ := Sweep(pts, dist, eps, true, 0, false)
				full := expanded(within)
				for _, minPts := range []int{1, 3, n + 1} {
					want := dbscanScan(pts, dist, eps, minPts)
					for _, run := range []struct {
						name string
						got  Result
					}{
						{"DBSCAN", DBSCAN(pts, dist, eps, minPts)},
						{"DBSCANRows on shared rows", DBSCANRows(within, minPts)},
						{"DBSCANRows on the expanded copy", DBSCANRows(full, minPts)},
					} {
						if err := sameResult(run.got, want); err != nil {
							t.Fatalf("n=%d %s eps=%v minPts=%d, %s: %v", n, g.name, eps, minPts, run.name, err)
						}
					}
				}
			}
		}
	}
	if !sawShared {
		t.Error("every point set was all-distinct: no relation shared a row")
	}
}

// expanded copies r into a relation that stores every row on its own,
// the n x n matrix a sweep that shared no rows would have built.
func expanded(r *bitrel.Rel) *bitrel.Rel {
	e := bitrel.New(r.Len(), r.Cols())
	for i := range r.Len() {
		copy(e.Row(i), r.Row(i))
	}
	return e
}

// TestDBSCANContestedBorder: a border point within eps of core points of
// two clusters belongs to the cluster that expands first, and a point
// visited as noise before either cluster reaches it is still adopted.
func TestDBSCANContestedBorder(t *testing.T) {
	// On a line with eps = 1 and minPts = 4: {0, 1, 1, 2} and
	// {4, 5, 5, 6} are two clusters whose core points 2 and 4 both reach
	// 3, which has three neighbours and is no core point itself. It
	// comes first in index order, so it is scanned as noise before
	// either cluster exists. At minPts = 3 it is a core point and the
	// two clusters are one.
	line := []float64{3, 0, 1, 2, 4, 5, 6, 1, 5, 20}
	pts := make([]feature.Vector, len(line))
	for i, x := range line {
		pts[i] = feature.Vector{x}
	}
	for _, minPts := range []int{3, 4} {
		got := DBSCAN(pts, feature.Euclidean, 1, minPts)
		want := dbscanScan(pts, feature.Euclidean, 1, minPts)
		if err := sameResult(got, want); err != nil {
			t.Fatalf("minPts=%d: %v", minPts, err)
		}
	}
	got := DBSCAN(pts, feature.Euclidean, 1, 4)
	if got.K != 2 {
		t.Fatalf("K = %d, want two clusters joined only by a border point", got.K)
	}
	if got.Assign[0] != got.Assign[1] {
		t.Errorf("contested border point went to cluster %d, want the first-expanded cluster %d", got.Assign[0], got.Assign[1])
	}
	if got.Assign[9] != Noise {
		t.Errorf("outlier assigned to %d", got.Assign[9])
	}
}

// namedGeometry is a point set with the distance it is swept under.
type namedGeometry struct {
	name string
	pts  []feature.Vector
	dist feature.Distance
}

// duplicateGeometries are the point sets that exercise Sweep's grouping
// by value: points drawn from small palettes, each point its own copy of
// its value, plus an all-distinct and an all-equal set. The palettes
// hold values that are different to the bit but close or equal under the
// distance: -0 next to +0, [x] next to [x, 0] (Euclidean distance 0),
// a NaN component (at distance NaN from everything, itself included)
// and, under cosine distance, zero vectors of several lengths, the empty
// one among them (at distance 1 from everything).
func duplicateGeometries(n int, rnd *rand.Rand) []namedGeometry {
	negZero := math.Copysign(0, -1)
	palette := []feature.Vector{{0, 1}, {negZero, 1}, {1}, {1, 0}, {2, 0.5}, {0.5, 2}, {3, 3}, {math.NaN(), 1}}
	zeros := []feature.Vector{{}, {0}, {0, 0}, {negZero, 0}, {1, 1}, {1, 1, 0}, {2, 0}, {math.NaN(), 1}}
	draw := func(from []feature.Vector) []feature.Vector {
		pts := make([]feature.Vector, n)
		for i := range pts {
			pts[i] = append(feature.Vector{}, from[rnd.Intn(len(from))]...)
		}
		return pts
	}
	distinct := make([]feature.Vector, n)
	equal := make([]feature.Vector, n)
	for i := range distinct {
		distinct[i] = feature.Vector{float64(i % 7), rnd.Float64()}
		equal[i] = feature.Vector{1.5, -2}
	}
	return []namedGeometry{
		{"palette", draw(palette), feature.Euclidean},
		{"zero palette", draw(zeros), feature.CosineDistance},
		{"distinct", distinct, feature.Euclidean},
		{"equal", equal, feature.Euclidean},
	}
}

// TestSweepMatchesDoubleLoop compares the relations Sweep builds against
// the plain n x n double loop, with eps == t sitting exactly on pairwise
// distances so a <= / < mix-up shows: measured by the sweep itself and
// read from a Measure buffer, each relation alone and both together, on
// one worker and on four. Under cosine distance the zero vectors sit
// outside their own neighbourhood (CosineDistance(0, 0) is 1), which
// only an evaluated diagonal gets right. The duplicate-heavy sets check
// the grouping by value; the buffer, which feeds windows of at most the
// sample cap, is read at up to 512 points.
func TestSweepMatchesDoubleLoop(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	ownOutside := 0 // points the threshold puts outside their own neighbourhood
	for _, n := range []int{0, 1, 2, 63, 64, 65, 130, 512} {
		for name, pts := range geometries(n, rnd) {
			dist := feature.Distance(feature.Euclidean)
			if name == "zeros" {
				dist = feature.CosineDistance
			}
			full := doubleLoop(pts, dist)
			thr := somePairDistance(pts, dist, rnd)
			ownOutside += checkSweep(t, fmt.Sprintf("n=%d %s", n, name), pts, dist, full, thr, true)
		}
	}
	for _, n := range []int{2, 63, 64, 65, 130, 512, 1500} {
		for _, g := range duplicateGeometries(n, rnd) {
			full := doubleLoop(g.pts, g.dist)
			// The threshold is a distance of some pair, the diagonal
			// included, that is not NaN.
			thr := 1.0
			for k, first := 0, rnd.Intn(n*n); k < n*n; k++ {
				c := (first + k) % (n * n)
				if d := full[c/n][c%n]; d == d {
					thr = d
					break
				}
			}
			ownOutside += checkSweep(t, fmt.Sprintf("n=%d %s", n, g.name), g.pts, g.dist, full, thr, n <= 512)
		}
	}
	if ownOutside == 0 {
		t.Error("no point sat outside its own neighbourhood: the test cannot tell an evaluated diagonal from an assumed 0")
	}
}

// doubleLoop is dist over every ordered pair of pts, the diagonal
// included.
func doubleLoop(pts []feature.Vector, dist feature.Distance) [][]float64 {
	full := make([][]float64, len(pts))
	for i := range full {
		full[i] = make([]float64, len(pts))
		for j := range full[i] {
			full[i][j] = dist(pts[i], pts[j])
		}
	}
	return full
}

// checkSweep runs Sweep on pts at eps == t == thr for each relation alone
// and both together, measured by the sweep and, when fromBuffer, read
// from Measure's buffer, on one worker and on four, and compares each
// matrix with full. It returns the number of points thr puts outside
// their own neighbourhood.
func checkSweep(t *testing.T, at string, pts []feature.Vector, dist feature.Distance, full [][]float64, thr float64, fromBuffer bool) (ownOutside int) {
	t.Helper()
	onThreshold, allNaN := false, true
	for i := range full {
		for _, d := range full[i] {
			onThreshold = onThreshold || d == thr
			allNaN = allNaN && d != d
		}
		if !(full[i][i] <= thr) {
			ownOutside++
		}
	}
	if len(pts) >= 2 && !onThreshold && !allNaN {
		t.Fatalf("%s: no pair at the threshold, the test cannot tell <= from <", at)
	}
	feeds := map[string]func(eps float64, within bool, t float64, below bool) (*bitrel.Rel, *bitrel.Rel){
		"dist": func(eps float64, within bool, t float64, below bool) (*bitrel.Rel, *bitrel.Rel) {
			return Sweep(pts, dist, eps, within, t, below)
		},
	}
	if fromBuffer {
		feeds["buffer"] = func(eps float64, within bool, t float64, below bool) (*bitrel.Rel, *bitrel.Rel) {
			return Measure(pts, dist).Sweep(eps, within, t, below)
		}
	}
	for _, rel := range []struct{ within, below bool }{{true, false}, {false, true}, {true, true}} {
		for feed, sweep := range feeds {
			for _, workers := range []int{1, 4} {
				var within, below *bitrel.Rel
				withWorkers(workers, func() { within, below = sweep(thr, rel.within, thr, rel.below) })
				at := fmt.Sprintf("%s within=%v below=%v fed by %s, workers=%d", at, rel.within, rel.below, feed, workers)
				checkRelation(t, at+": within", within, rel.within, full, func(d float64) bool { return d <= thr })
				checkRelation(t, at+": below", below, rel.below, full, func(d float64) bool { return d < thr })
				// Measured or read from the buffer, equal vectors share
				// one row.
				if rel.within {
					checkSharing(t, at+": within", within, pts)
				}
				if rel.below {
					checkSharing(t, at+": below", below, pts)
				}
				if rel.within && rel.below && workers == 1 {
					checkRelation(t, at+": within, expanded", expanded(within), true, full, func(d float64) bool { return d <= thr })
					checkRelation(t, at+": below, expanded", expanded(below), true, full, func(d float64) bool { return d < thr })
				}
			}
		}
	}
	return ownOutside
}

// checkSharing checks which rows of r read the same storage: row i reads
// the row of the first point with pts[i]'s value.
func checkSharing(t *testing.T, at string, r *bitrel.Rel, pts []feature.Vector) {
	t.Helper()
	firstOf := map[string]int{}
	owner := map[*uint64]int{}
	for i, v := range pts {
		want := i
		k := valueKey(v)
		if f, seen := firstOf[k]; seen {
			want = f
		} else {
			firstOf[k] = i
		}
		p := &r.Row(i)[0]
		o, seen := owner[p]
		if !seen {
			owner[p], o = i, i
		}
		if o != want {
			t.Fatalf("%s: row %d is stored with row %d, want %d", at, i, o, want)
		}
	}
}

// valueKey is a vector's value as a map key: its length and the float64
// bits of every component.
func valueKey(v feature.Vector) string {
	key := make([]byte, 0, 8*len(v))
	for _, x := range v {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
	}
	return string(key)
}

// distinctVectors counts the distinct values among pts, two vectors being
// the same value when they have the same length and the same float64
// bits in every component.
func distinctVectors(pts []feature.Vector) int {
	seen := map[string]bool{}
	for _, v := range pts {
		seen[valueKey(v)] = true
	}
	return len(seen)
}

// TestSweepCallsDistanceOncePerDistinctPair: a sweep that measures the
// points itself calls dist exactly once per unordered pair of distinct
// values, U(U+1)/2 times, whatever the number of workers, and so do
// DBSCAN through it, Measure, and an unsampled EpsPercentile; sweeping
// a Measure calls dist no more.
func TestSweepCallsDistanceOncePerDistinctPair(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	sawShared := false
	for _, n := range []int{1, 2, 65, 130, 512, 1500} {
		for _, g := range duplicateGeometries(n, rnd) {
			u := distinctVectors(g.pts)
			sawShared = sawShared || u < n
			want := int64(u * (u + 1) / 2)
			var calls atomic.Int64
			dist := func(a, b feature.Vector) float64 { calls.Add(1); return g.dist(a, b) }
			for _, workers := range []int{1, 4} {
				calls.Store(0)
				withWorkers(workers, func() { Sweep(g.pts, dist, 1, true, 1, true) })
				if got := calls.Load(); got != want {
					t.Errorf("n=%d %s, workers=%d: %d distance calls, want U(U+1)/2 = %d for U = %d", n, g.name, workers, got, want, u)
				}
			}
			for name, measure := range map[string]func(){
				"DBSCAN":        func() { DBSCAN(g.pts, dist, 1, 3) },
				"Measure":       func() { Measure(g.pts, dist).Percentiles(0.05, 0.08) },
				"EpsPercentile": func() { EpsPercentile(g.pts, dist, 0.05, 0, 1) },
			} {
				calls.Store(0)
				measure()
				if got := calls.Load(); got != want {
					t.Errorf("n=%d %s: %s made %d distance calls, want U(U+1)/2 = %d for U = %d", n, g.name, name, got, want, u)
				}
			}
			ds := Measure(g.pts, dist)
			calls.Store(0)
			ds.Sweep(1, true, 1, true)
			if got := calls.Load(); got != 0 {
				t.Errorf("n=%d %s: sweeping a Measure made %d distance calls, want none", n, g.name, got)
			}
		}
	}
	if !sawShared {
		t.Error("every point set was all-distinct: the test cannot tell a grouped sweep from a plain one")
	}
}

// checkRelation compares a Sweep relation to holds over the full
// distance matrix: nil when not asked for, n rows over n columns, bit
// (i, j) == holds(full[i][j]), and every row's words those of the double
// loop, so no bit is set past column n-1 (popcounts read whole words).
func checkRelation(t *testing.T, at string, rows *bitrel.Rel, asked bool, full [][]float64, holds func(float64) bool) {
	t.Helper()
	n := len(full)
	if !asked {
		if rows != nil {
			t.Fatalf("%s: a relation of %d rows, not asked for", at, rows.Len())
		}
		return
	}
	if rows.Len() != n || rows.Cols() != n {
		t.Fatalf("%s: %d x %d, want %d x %d", at, rows.Len(), rows.Cols(), n, n)
	}
	want := make([]uint64, bitrel.Words(n))
	for i := range full {
		clear(want)
		for j, d := range full[i] {
			if holds(d) {
				want[j>>6] |= 1 << (j & 63)
			}
			if rows.Has(i, j) != holds(d) {
				t.Fatalf("%s: bit (%d,%d) = %v at distance %v", at, i, j, !holds(d), d)
			}
		}
		if !slices.Equal(rows.Row(i), want) {
			t.Fatalf("%s: row %d is %x, want %x", at, i, rows.Row(i), want)
		}
	}
}

// TestPairwiseDistancesMatchesSerialLoop: Measure's buffer, filled
// across workers, is the serial double loop over the distinct values in
// order of first occurrence, bit for bit, in row order with the
// diagonal first, and its class sizes count each value's points.
func TestPairwiseDistancesMatchesSerialLoop(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	sets := map[string][]feature.Vector{}
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 130, 512} {
		for name, pts := range geometries(n, rnd) {
			sets[fmt.Sprintf("n=%d %s", n, name)] = pts
		}
	}
	for _, g := range duplicateGeometries(130, rnd) {
		sets["n=130 "+g.name] = g.pts
	}
	for name, pts := range sets {
		var reps []feature.Vector
		var size []int
		classOf := map[string]int{}
		for _, v := range pts {
			c, seen := classOf[valueKey(v)]
			if !seen {
				c = len(reps)
				classOf[valueKey(v)] = c
				reps, size = append(reps, v), append(size, 0)
			}
			size[c]++
		}
		for _, dist := range []feature.Distance{feature.Euclidean, feature.CosineDistance} {
			var want []float64
			for a := range reps {
				for b := a; b < len(reps); b++ {
					want = append(want, dist(reps[a], reps[b]))
				}
			}
			for _, workers := range []int{1, 4} {
				var got *Distances
				withWorkers(workers, func() { got = Measure(pts, dist) })
				if !slices.Equal(got.size, size) {
					t.Fatalf("%s workers=%d: class sizes %v, want %v", name, workers, got.size, size)
				}
				if len(got.d) != len(want) {
					t.Fatalf("%s workers=%d: %d distances, want U(U+1)/2 = %d", name, workers, len(got.d), len(want))
				}
				for k := range want {
					if math.Float64bits(got.d[k]) != math.Float64bits(want[k]) {
						t.Fatalf("%s workers=%d: slot %d = %v, serial loop %v", name, workers, k, got.d[k], want[k])
					}
				}
			}
		}
	}
}

// TestSweepBuildsOnlyWhatIsAsked: a relation not asked for costs no
// matrix, asking for none costs no distance call, and sweeping a
// Measure calls dist not at all: Measure made the n(n+1)/2 calls.
func TestSweepBuildsOnlyWhatIsAsked(t *testing.T) {
	pts, _ := blobs(70, 3)
	calls := 0
	dist := func(a, b feature.Vector) float64 { calls++; return feature.Euclidean(a, b) }
	withWorkers(1, func() {
		if w, b := Sweep(pts, dist, 1, false, 1, false); w != nil || b != nil || calls != 0 {
			t.Errorf("nothing asked: got within=%v below=%v after %d calls", w != nil, b != nil, calls)
		}
		w, b := Sweep(pts, dist, 2, true, 1, false)
		if w == nil || b != nil {
			t.Errorf("within only: got within=%v below=%v", w != nil, b != nil)
		}
		want := 70 * 71 / 2
		if calls != want {
			t.Errorf("within only: %d distance calls, want n(n+1)/2 = %d", calls, want)
		}
		calls = 0
		Sweep(pts, dist, 2, true, 1, true)
		if calls != want {
			t.Errorf("both relations: %d distance calls, want n(n+1)/2 = %d", calls, want)
		}
		calls = 0
		ds := Measure(pts, dist)
		if calls != want {
			t.Errorf("Measure: %d distance calls, want n(n+1)/2 = %d", calls, want)
		}
		calls = 0
		if w, b := ds.Sweep(2, false, 1, true); w != nil || b == nil || calls != 0 {
			t.Errorf("below only from the buffer: got within=%v below=%v after %d calls, want no call", w != nil, b != nil, calls)
		}
		if w, b := ds.Sweep(2, false, 1, false); w != nil || b != nil {
			t.Errorf("nothing asked from the buffer: got within=%v below=%v", w != nil, b != nil)
		}
	})
}

// TestSweepStoresOneRowPerDistinctVector: on 4 096 points over 64
// values, a sweep of both relations allocates less than one n x n bit
// matrix, because each relation stores one row per distinct vector, and
// the shared rows still hold the right bits.
func TestSweepStoresOneRowPerDistinctVector(t *testing.T) {
	const n, u = 4096, 64
	rnd := rand.New(rand.NewSource(36))
	values := make([]feature.Vector, u)
	for c := range values {
		values[c] = feature.Vector{rnd.Float64(), rnd.Float64()}
	}
	pts := make([]feature.Vector, n)
	for i := range pts {
		pts[i] = append(feature.Vector{}, values[rnd.Intn(u)]...)
	}
	const eps, thr = 0.4, 0.2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	within, below := Sweep(pts, feature.Euclidean, eps, true, thr, true)
	runtime.ReadMemStats(&after)
	matrix := uint64(n * bitrel.Words(n) * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got >= matrix {
		t.Errorf("sweep of %d points over %d values allocated %d bytes, want less than one %d x %d bit matrix (%d bytes)", n, u, got, n, n, matrix)
	}
	for range 20000 {
		i, j := rnd.Intn(n), rnd.Intn(n)
		d := feature.Euclidean(pts[i], pts[j])
		if within.Has(i, j) != (d <= eps) || below.Has(i, j) != (d < thr) {
			t.Fatalf("pair (%d,%d) at distance %v: within=%v below=%v", i, j, d, within.Has(i, j), below.Has(i, j))
		}
	}
}
