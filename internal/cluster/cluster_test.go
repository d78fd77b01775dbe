package cluster

import (
	"math"
	"math/rand"
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

func TestKMeansSeparatedBlobs(t *testing.T) {
	pts, truth := blobs(90, 7)
	res := KMeans(pts, 3, 50, 1)
	if res.K != 3 {
		t.Fatalf("KMeans K = %d", res.K)
	}
	blobToCluster := map[int]int{}
	for i, c := range res.Assign {
		if prev, ok := blobToCluster[truth[i]]; ok && prev != c {
			t.Fatalf("blob %d split across kmeans clusters", truth[i])
		}
		blobToCluster[truth[i]] = c
	}
	if len(blobToCluster) != 3 {
		t.Errorf("blobs merged: %v", blobToCluster)
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	pts := []feature.Vector{{0, 0}, {1, 1}}
	res := KMeans(pts, 10, 10, 1)
	if res.K != 2 {
		t.Errorf("K clamped = %d, want 2", res.K)
	}
}

func TestKMeansEmpty(t *testing.T) {
	res := KMeans(nil, 3, 10, 1)
	if res.K != 0 {
		t.Errorf("KMeans(empty) K = %d", res.K)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	pts, _ := blobs(60, 8)
	a := KMeans(pts, 3, 50, 42)
	b := KMeans(pts, 3, 50, 42)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("KMeans not deterministic for fixed seed")
		}
	}
}

func TestKNNQueryOrdering(t *testing.T) {
	pts := []feature.Vector{{0}, {5}, {1}, {10}}
	ix := NewKNNIndex(pts, feature.Euclidean)
	ns := ix.Query(feature.Vector{0.4}, 3)
	if len(ns) != 3 {
		t.Fatalf("Query returned %d", len(ns))
	}
	wantOrder := []int{0, 2, 1}
	for i, w := range wantOrder {
		if ns[i].Index != w {
			t.Errorf("neighbor %d = index %d, want %d", i, ns[i].Index, w)
		}
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Dist < ns[i-1].Dist {
			t.Error("neighbors not sorted by distance")
		}
	}
}

func TestKNNQueryKClamped(t *testing.T) {
	ix := NewKNNIndex([]feature.Vector{{0}, {1}}, feature.Euclidean)
	if got := len(ix.Query(feature.Vector{0}, 10)); got != 2 {
		t.Errorf("Query k>n returned %d", got)
	}
	if got := ix.Query(feature.Vector{0}, 0); got != nil {
		t.Errorf("Query k=0 returned %v", got)
	}
}

func TestKNNNearestEmpty(t *testing.T) {
	ix := NewKNNIndex(nil, feature.Euclidean)
	n := ix.Nearest(feature.Vector{1})
	if n.Index != -1 || !math.IsInf(n.Dist, 1) {
		t.Errorf("Nearest on empty = %+v", n)
	}
}

func TestKNNTieBreakByIndex(t *testing.T) {
	pts := []feature.Vector{{1}, {1}, {1}}
	ix := NewKNNIndex(pts, feature.Euclidean)
	ns := ix.Query(feature.Vector{1}, 3)
	for i, n := range ns {
		if n.Index != i {
			t.Errorf("tie-break order: got %d at rank %d", n.Index, i)
		}
	}
}

func BenchmarkDBSCAN(b *testing.B) {
	pts, _ := blobs(400, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DBSCAN(pts, feature.Euclidean, 2.0, 3)
	}
}

func BenchmarkKNNQuery(b *testing.B) {
	pts, _ := blobs(1000, 10)
	ix := NewKNNIndex(pts, feature.Euclidean)
	q := feature.Vector{1, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Query(q, 8)
	}
}
