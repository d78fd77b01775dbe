package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"batcher/internal/feature"
)

// sameFloat is the equality the thresholds are used under: == (so -0
// and +0 are one value), with NaN equal to NaN.
func sameFloat(a, b float64) bool {
	return a == b || (a != a && b != b)
}

// checkSelect compares selectKth against a full sort at each k in ks.
func checkSelect(t *testing.T, name string, ds []float64, ks []int) {
	t.Helper()
	sorted := append([]float64(nil), ds...)
	sort.Float64s(sorted)
	buf := make([]float64, len(ds))
	for n, k := range ks {
		copy(buf, ds)
		got := selectKth(buf, k)
		if !sameFloat(got, sorted[k]) {
			t.Fatalf("%s: selectKth(k=%d of %d) = %v, sort gives %v", name, k, len(ds), got, sorted[k])
		}
		if !sameFloat(buf[k], sorted[k]) {
			t.Fatalf("%s: after selectKth(k=%d) ds[k] = %v, sort gives %v", name, k, buf[k], sorted[k])
		}
		// Selection permutes, it must not lose or invent elements
		// (checked once on the window-sized arrays: it costs a sort).
		if n > 0 && len(ds) > 1000 {
			continue
		}
		sort.Float64s(buf)
		for i := range buf {
			if !sameFloat(buf[i], sorted[i]) {
				t.Fatalf("%s: selectKth(k=%d) changed the multiset at sorted index %d", name, k, i)
			}
		}
	}
}

func everyK(n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = i
	}
	return ks
}

// TestSelectKthMatchesSort is the exactness contract of the percentile
// thresholds: selection returns the element sort.Float64s would leave
// at ds[k], for every k, on the inputs that break a careless
// quickselect — heavy duplicates, all-equal, signed zeros, +Inf, NaN.
func TestSelectKthMatchesSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	nan, inf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	negZero := math.Copysign(0, -1)
	special := []float64{nan, inf, ninf, 0, negZero, 1, 1, 2}

	fixed := map[string][]float64{
		"one":         {3},
		"two":         {2, 1},
		"three":       {2, 3, 1},
		"zeros":       {0, negZero, 0, negZero, negZero, 0},
		"nan-only":    {nan, nan, nan},
		"inf-and-nan": {inf, nan, 1, inf, nan, ninf, 0, negZero},
	}
	for name, ds := range fixed {
		checkSelect(t, name, ds, everyK(len(ds)))
	}

	for _, n := range []int{2, 3, selectInsertionMax, selectInsertionMax + 1, 100, 257} {
		gens := map[string]func() float64{
			"distinct":   rnd.Float64,
			"duplicates": func() float64 { return float64(rnd.Intn(4)) },
			"all-equal":  func() float64 { return 0.25 },
			"special":    func() float64 { return special[rnd.Intn(len(special))] },
			"sorted-ish": nil,
		}
		for name, gen := range gens {
			ds := make([]float64, n)
			for i := range ds {
				if gen == nil {
					ds[i] = float64(i / 3) // ascending with runs
				} else {
					ds[i] = gen()
				}
			}
			checkSelect(t, name, ds, everyK(n))
		}
	}

	// One window's worth: the 512-point sample's 130 816 distances.
	// Every k would be quadratic; take the calibrated percentiles, the
	// ends, and a random spread.
	big := 512 * 511 / 2
	for name, gen := range map[string]func() float64{
		"big-distinct":   rnd.Float64,
		"big-duplicates": func() float64 { return float64(rnd.Intn(50)) / 8 },
		"big-special":    func() float64 { return special[rnd.Intn(len(special))] },
	} {
		ds := make([]float64, big)
		for i := range ds {
			ds[i] = gen()
		}
		ks := []int{0, 1, int(0.05 * float64(big-1)), int(0.08 * float64(big-1)), big / 2, big - 2, big - 1}
		for i := 0; i < 8; i++ {
			ks = append(ks, rnd.Intn(big))
		}
		checkSelect(t, name, ds, ks)
	}
}

// epsPercentileSorted is EpsPercentile as it was written before the
// selection helper — index shuffle, append-built buffer, full sort —
// kept as the oracle for the sampling and the order statistic.
func epsPercentileSorted(points []feature.Vector, dist feature.Distance, p float64, sampleCap int, seed int64) float64 {
	n := len(points)
	if n < 2 {
		return 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if sampleCap > 0 && n > sampleCap {
		rnd := rand.New(rand.NewSource(seed))
		rnd.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		idx = idx[:sampleCap]
	}
	var ds []float64
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			ds = append(ds, dist(points[idx[i]], points[idx[j]]))
		}
	}
	sort.Float64s(ds)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return ds[int(p*float64(len(ds)-1))]
}

func TestEpsPercentileMatchesSortedOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 40, 120} {
		pts := make([]feature.Vector, n)
		for i := range pts {
			// A coarse grid: many coincident points and repeated distances.
			pts[i] = feature.Vector{float64(rnd.Intn(6)), float64(rnd.Intn(6)) / 2}
		}
		for _, sampleCap := range []int{0, 2, 17, n, n + 1} {
			for _, p := range []float64{-0.5, 0, 0.05, 0.08, 0.5, 0.999, 1, 1.5} {
				for _, dist := range []feature.Distance{feature.Euclidean, feature.CosineDistance} {
					for seed := int64(1); seed <= 2; seed++ {
						got := EpsPercentile(pts, dist, p, sampleCap, seed)
						want := epsPercentileSorted(pts, dist, p, sampleCap, seed)
						if !sameFloat(got, want) {
							t.Fatalf("n=%d cap=%d p=%v seed=%d: EpsPercentile = %v, sorted oracle = %v",
								n, sampleCap, p, seed, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPercentileTwiceFromOneBuffer: a second percentile taken from the
// buffer the first selection reordered is the one a fresh buffer gives —
// what lets the two calibrations of an unsampled window share their
// distances.
func TestPercentileTwiceFromOneBuffer(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	for _, n := range []int{2, 3, 40, 120} {
		pts := make([]feature.Vector, n)
		for i := range pts {
			pts[i] = feature.Vector{float64(rnd.Intn(6)), rnd.Float64()}
		}
		for _, dist := range []feature.Distance{feature.Euclidean, feature.CosineDistance} {
			for _, ps := range [][2]float64{{0.05, 0.08}, {0.08, 0.05}, {1, 0}, {0.5, 0.5}} {
				shared := PairwiseDistances(pts, dist)
				first, second := Percentile(shared, ps[0]), Percentile(shared, ps[1])
				wantFirst, _ := PairwisePercentile(pts, dist, ps[0])
				wantSecond, _ := PairwisePercentile(pts, dist, ps[1])
				if !sameFloat(first, wantFirst) || !sameFloat(second, wantSecond) {
					t.Fatalf("n=%d p=%v: shared buffer gave (%v, %v), fresh buffers (%v, %v)",
						n, ps, first, second, wantFirst, wantSecond)
				}
			}
		}
	}
}

func TestPairwisePercentileBufferAndBounds(t *testing.T) {
	if v, ds := PairwisePercentile(nil, feature.Euclidean, 0.5); v != 0 || ds != nil {
		t.Errorf("no points: got (%v, %v), want (0, nil)", v, ds)
	}
	if v, ds := PairwisePercentile([]feature.Vector{{1}}, feature.Euclidean, 0.5); v != 0 || ds != nil {
		t.Errorf("one point: got (%v, %v), want (0, nil)", v, ds)
	}
	pts := []feature.Vector{{0}, {1}, {3}, {7}}
	// pairwise distances: 1 3 7 2 6 4
	v, ds := PairwisePercentile(pts, feature.Euclidean, 2)
	if v != 7 {
		t.Errorf("p=2 clamps to the maximum: got %v, want 7", v)
	}
	if v, _ := PairwisePercentile(pts, feature.Euclidean, -1); v != 1 {
		t.Errorf("p=-1 clamps to the minimum: got %v, want 1", v)
	}
	// NaN passes both p < 0 and p > 1; int(NaN) used to index the buffer
	// at -9223372036854775808.
	if v, _ := PairwisePercentile(pts, feature.Euclidean, math.NaN()); v != 1 {
		t.Errorf("p=NaN reads as unset, the minimum: got %v, want 1", v)
	}
	if v := EpsPercentile(pts, feature.Euclidean, math.NaN(), 3, 1); !(v >= 1) {
		t.Errorf("sampled p=NaN: got %v, want a pairwise distance", v)
	}
	if v := Percentile(nil, 0.5); v != 0 {
		t.Errorf("Percentile of no distances = %v, want 0", v)
	}
	sort.Float64s(ds)
	want := []float64{1, 2, 3, 4, 6, 7}
	if len(ds) != len(want) {
		t.Fatalf("buffer holds %d distances, want %d", len(ds), len(want))
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("buffer (sorted) = %v, want %v", ds, want)
		}
	}
}
