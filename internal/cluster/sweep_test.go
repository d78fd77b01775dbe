package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

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
	for _, n := range []int{0, 1, 2, 63, 64, 65, 129, 700} {
		for name, pts := range geometries(n, rnd) {
			dist := feature.Distance(feature.Euclidean)
			if name == "zeros" {
				dist = feature.CosineDistance
			}
			epss := []float64{0, somePairDistance(pts, dist, rnd), somePairDistance(pts, dist, rnd), 0.9, math.NaN()}
			for _, eps := range epss {
				for _, minPts := range []int{1, 3, n + 1} {
					got := DBSCAN(pts, dist, eps, minPts)
					if err := sameResult(got, dbscanScan(pts, dist, eps, minPts)); err != nil {
						t.Fatalf("n=%d %s eps=%v minPts=%d: %v", n, name, eps, minPts, err)
					}
				}
			}
		}
	}
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

// bitAt reads bit (i, j) of an n-column Sweep matrix.
func bitAt(rows []uint64, n, i, j int) bool {
	return rows[i*RowWords(n)+j>>6]>>(j&63)&1 != 0
}

// TestSweepMatchesDoubleLoop compares both relations against the plain
// n x n double loop, with eps == t sitting exactly on pairwise distances
// so a <= / < mix-up shows, on one worker and on four.
func TestSweepMatchesDoubleLoop(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 129, 300} {
		for name, pts := range geometries(n, rnd) {
			dist := feature.Distance(feature.Euclidean)
			if name == "zeros" {
				dist = feature.CosineDistance
			}
			thr := somePairDistance(pts, dist, rnd)
			for _, workers := range []int{1, 4} {
				var within, below []uint64
				withWorkers(workers, func() { within, below = Sweep(pts, dist, thr, true, thr, true) })
				if len(within) != n*RowWords(n) || len(below) != n*RowWords(n) {
					t.Fatalf("n=%d: matrices of %d and %d words, want %d", n, len(within), len(below), n*RowWords(n))
				}
				differ := false
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						d := dist(pts[i], pts[j])
						if bitAt(within, n, i, j) != (d <= thr) {
							t.Fatalf("n=%d %s workers=%d: within(%d,%d) = %v, dist %v, eps %v", n, name, workers, i, j, !(d <= thr), d, thr)
						}
						if bitAt(below, n, i, j) != (d < thr) {
							t.Fatalf("n=%d %s workers=%d: below(%d,%d) = %v, dist %v, t %v", n, name, workers, i, j, !(d < thr), d, thr)
						}
						differ = differ || d == thr
					}
				}
				if n >= 2 && !differ {
					t.Fatalf("n=%d %s: no pair at the threshold, the test cannot tell <= from <", n, name)
				}
				// Bits past column n-1 stay clear: popcounts read whole words.
				for i := 0; i < n; i++ {
					if last := within[(i+1)*RowWords(n)-1] | below[(i+1)*RowWords(n)-1]; n&63 != 0 && last>>(n&63) != 0 {
						t.Fatalf("n=%d: row %d has bits set past column %d", n, i, n-1)
					}
				}
			}
		}
	}
}

// TestSweepBuildsOnlyWhatIsAsked: a relation not asked for costs no
// matrix, and asking for none costs no distance call.
func TestSweepBuildsOnlyWhatIsAsked(t *testing.T) {
	pts, _ := blobs(70, 3)
	calls := 0
	dist := func(a, b feature.Vector) float64 { calls++; return feature.Euclidean(a, b) }
	withWorkers(1, func() {
		if w, b := Sweep(pts, dist, 1, false, 1, false); w != nil || b != nil || calls != 0 {
			t.Errorf("nothing asked: got %d and %d words after %d calls", len(w), len(b), calls)
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
	})
}
