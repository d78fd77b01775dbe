package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"batcher/internal/feature"
)

// blobs generates three well-separated Gaussian-ish blobs in 2D.
func blobs(n int, seed int64) ([]feature.Vector, []int) {
	rnd := rand.New(rand.NewSource(seed))
	centers := []feature.Vector{{0, 0}, {10, 10}, {-10, 10}}
	var pts []feature.Vector
	var truth []int
	for i := 0; i < n; i++ {
		c := i % len(centers)
		pts = append(pts, feature.Vector{
			centers[c][0] + rnd.NormFloat64()*0.5,
			centers[c][1] + rnd.NormFloat64()*0.5,
		})
		truth = append(truth, c)
	}
	return pts, truth
}

func TestDBSCANSeparatedBlobs(t *testing.T) {
	pts, truth := blobs(90, 1)
	res := DBSCAN(pts, feature.Euclidean, 2.0, 3)
	if res.K != 3 {
		t.Fatalf("DBSCAN found %d clusters, want 3", res.K)
	}
	// All points in the same true blob must share a DBSCAN cluster.
	blobToCluster := map[int]int{}
	for i, c := range res.Assign {
		if c == Noise {
			t.Fatalf("point %d marked noise in dense blob", i)
		}
		if prev, ok := blobToCluster[truth[i]]; ok && prev != c {
			t.Fatalf("blob %d split across clusters %d and %d", truth[i], prev, c)
		}
		blobToCluster[truth[i]] = c
	}
}

func TestDBSCANNoise(t *testing.T) {
	pts, _ := blobs(30, 2)
	pts = append(pts, feature.Vector{100, 100}) // lone outlier
	res := DBSCAN(pts, feature.Euclidean, 2.0, 3)
	if res.Assign[len(pts)-1] != Noise {
		t.Error("outlier not marked as noise")
	}
}

func TestDBSCANEmpty(t *testing.T) {
	res := DBSCAN(nil, feature.Euclidean, 1, 2)
	if res.K != 0 || len(res.Assign) != 0 {
		t.Errorf("DBSCAN(empty) = %+v", res)
	}
}

func TestDBSCANDeterministic(t *testing.T) {
	pts, _ := blobs(60, 3)
	a := DBSCAN(pts, feature.Euclidean, 2.0, 3)
	b := DBSCAN(pts, feature.Euclidean, 2.0, 3)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("DBSCAN not deterministic")
		}
	}
}

// TestDBSCANParallelMatchesSequential runs the sweep behind DBSCAN on
// one worker and on four and checks both assign every point alike: each
// matrix word has one owner, so the neighbourhood rows cannot depend on
// the schedule.
func TestDBSCANParallelMatchesSequential(t *testing.T) {
	pts, _ := blobs(800, 6)
	var seq, par Result
	withWorkers(1, func() { seq = DBSCAN(pts, feature.Euclidean, 2.0, 3) })
	withWorkers(4, func() { par = DBSCAN(pts, feature.Euclidean, 2.0, 3) })
	if par.K != seq.K {
		t.Fatalf("parallel K = %d, sequential K = %d", par.K, seq.K)
	}
	for i := range seq.Assign {
		if par.Assign[i] != seq.Assign[i] {
			t.Fatalf("point %d: parallel cluster %d, sequential %d", i, par.Assign[i], seq.Assign[i])
		}
	}
}

func TestDBSCANMinPtsTooHigh(t *testing.T) {
	pts, _ := blobs(9, 4)
	res := DBSCAN(pts, feature.Euclidean, 2.0, 100)
	for _, c := range res.Assign {
		if c != Noise {
			t.Fatal("expected all noise with impossible minPts")
		}
	}
	if res.K != 0 {
		t.Errorf("K = %d, want 0", res.K)
	}
}

func TestResultClustersCoverAllPoints(t *testing.T) {
	pts, _ := blobs(40, 5)
	pts = append(pts, feature.Vector{99, 99}) // noise point
	res := DBSCAN(pts, feature.Euclidean, 2.0, 3)
	groups := res.Clusters()
	seen := make([]bool, len(pts))
	for _, g := range groups {
		for _, i := range g {
			if seen[i] {
				t.Fatalf("point %d in two clusters", i)
			}
			seen[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("point %d lost by Clusters()", i)
		}
	}
}

// appendClusters is the grouping Clusters replaced: one appended slice
// per cluster, then one singleton per noise point.
func appendClusters(r Result) [][]int {
	groups := make([][]int, r.K)
	var noise []int
	for i, c := range r.Assign {
		if c == Noise {
			noise = append(noise, i)
			continue
		}
		groups[c] = append(groups[c], i)
	}
	for _, i := range noise {
		groups = append(groups, []int{i})
	}
	return groups
}

// TestClustersMatchAppendBuilt: Clusters carves the groups from one
// array of n indices in two allocations, equal to the appended
// grouping on DBSCAN results with noise, and no group's capacity
// reaches into the next.
func TestClustersMatchAppendBuilt(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	mixed := 0 // cases with both clusters and noise
	for _, tc := range []struct {
		n      int
		eps    float64
		minPts int
	}{{90, 2.0, 3}, {90, 0.6, 4}, {200, 1.0, 5}, {60, 0.01, 2}, {1, 1, 1}, {0, 1, 1}} {
		pts, _ := blobs(tc.n, int64(tc.n))
		for range tc.n / 10 { // scattered points, mostly noise
			pts = append(pts, feature.Vector{rnd.Float64()*60 - 30, rnd.Float64()*60 - 30})
		}
		res := DBSCAN(pts, feature.Euclidean, tc.eps, tc.minPts)
		got, want := res.Clusters(), appendClusters(res)
		if len(got) != len(want) {
			t.Fatalf("n=%d eps=%v: %d groups, want %d", tc.n, tc.eps, len(got), len(want))
		}
		if len(got) > res.K && res.K > 0 {
			mixed++
		}
		for g := range want {
			if !slices.Equal(got[g], want[g]) {
				t.Fatalf("n=%d eps=%v: group %d = %v, want %v", tc.n, tc.eps, g, got[g], want[g])
			}
			if cap(got[g]) != len(got[g]) {
				t.Errorf("group %d: cap %d, len %d", g, cap(got[g]), len(got[g]))
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { res.Clusters() }); len(pts) > 0 && allocs != 2 {
			t.Errorf("n=%d: Clusters allocates %v times, want 2", len(pts), allocs)
		}
	}
	if mixed < 3 {
		t.Errorf("%d cases hold both clusters and noise, want at least 3", mixed)
	}
}

func TestEpsPercentile(t *testing.T) {
	pts := []feature.Vector{{0}, {1}, {2}, {3}}
	// pairwise distances: 1,2,3,1,2,1 sorted: 1,1,1,2,2,3
	if got := EpsPercentile(pts, feature.Euclidean, 0, 0, 1); got != 1 {
		t.Errorf("p=0 -> %v, want 1", got)
	}
	if got := EpsPercentile(pts, feature.Euclidean, 1, 0, 1); got != 3 {
		t.Errorf("p=1 -> %v, want 3", got)
	}
	mid := EpsPercentile(pts, feature.Euclidean, 0.5, 0, 1)
	if mid < 1 || mid > 2 {
		t.Errorf("p=0.5 -> %v, want in [1,2]", mid)
	}
}

func TestEpsPercentileSampled(t *testing.T) {
	pts, _ := blobs(300, 6)
	full := EpsPercentile(pts, feature.Euclidean, 0.08, 0, 1)
	sampled := EpsPercentile(pts, feature.Euclidean, 0.08, 100, 1)
	if sampled <= 0 {
		t.Fatalf("sampled percentile = %v", sampled)
	}
	// Sampled estimate should be within a factor of 3 of the full one.
	ratio := sampled / full
	if ratio < 1/3.0 || ratio > 3 {
		t.Errorf("sampled=%v full=%v ratio=%v out of band", sampled, full, ratio)
	}
}

func TestEpsPercentileDegenerate(t *testing.T) {
	if got := EpsPercentile(nil, feature.Euclidean, 0.5, 0, 1); got != 0 {
		t.Errorf("empty -> %v, want 0", got)
	}
	if got := EpsPercentile([]feature.Vector{{1}}, feature.Euclidean, 0.5, 0, 1); got != 0 {
		t.Errorf("single -> %v, want 0", got)
	}
}

func BenchmarkDBSCAN(b *testing.B) {
	pts, _ := blobs(400, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DBSCAN(pts, feature.Euclidean, 2.0, 3)
	}
}
