package cluster

import (
	"fmt"
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

// selectCase is one input of the exactness tests and the ranks to check.
type selectCase struct {
	name string
	ds   []float64
	ks   []int
}

// calibratedKs are the ranks worth checking in a buffer too long for
// every k: the ends, the calibrated percentiles and a random spread.
func calibratedKs(n int, rnd *rand.Rand) []int {
	ks := []int{0, 1, int(0.05 * float64(n-1)), int(0.08 * float64(n-1)), n / 2, n - 2, n - 1}
	for i := 0; i < 8; i++ {
		ks = append(ks, rnd.Intn(n))
	}
	return ks
}

// selectCases are the inputs that break a careless quickselect — heavy
// duplicates, all-equal, signed zeros, +Inf, NaN — at small sizes with
// every k, and at one window's size (the 512-point sample's 130 816
// distances) with calibratedKs.
func selectCases(rnd *rand.Rand) []selectCase {
	nan, inf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	negZero := math.Copysign(0, -1)
	special := []float64{nan, inf, ninf, 0, negZero, 1, 1, 2}

	var cases []selectCase
	for name, ds := range map[string][]float64{
		"one":         {3},
		"two":         {2, 1},
		"three":       {2, 3, 1},
		"zeros":       {0, negZero, 0, negZero, negZero, 0},
		"nan-only":    {nan, nan, nan},
		"inf-and-nan": {inf, nan, 1, inf, nan, ninf, 0, negZero},
	} {
		cases = append(cases, selectCase{name, ds, everyK(len(ds))})
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
			cases = append(cases, selectCase{name, ds, everyK(n)})
		}
	}

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
		cases = append(cases, selectCase{name, ds, calibratedKs(big, rnd)})
	}
	return cases
}

// TestSelectKthMatchesSort is the exactness contract of the percentile
// thresholds: selection returns the element sort.Float64s would leave
// at ds[k] on selectCases.
func TestSelectKthMatchesSort(t *testing.T) {
	for _, c := range selectCases(rand.New(rand.NewSource(7))) {
		checkSelect(t, c.name, c.ds, c.ks)
	}
}

// bracketCases are inputs built to defeat bracketKth's strided sample,
// at lengths on both sides of bracketMinLen and at one window's length:
// values periodic in the stride (every sampled value is the minimum), a
// NaN at a sampled index, one off it, and both; a run of duplicates and
// a run of mixed-sign zeros straddling the calibrated ranks.
func bracketCases(rnd *rand.Rand) []selectCase {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	var cases []selectCase
	for _, n := range []int{bracketMinLen - 1, bracketMinLen, bracketMinLen + 1, 3*bracketMinLen + 17, 512 * 511 / 2} {
		stride := n / bracketSample
		uniform := func() []float64 {
			ds := make([]float64, n)
			for i := range ds {
				ds[i] = rnd.Float64()
			}
			return ds
		}
		periodic := uniform()
		for i := range periodic {
			if i%stride == 0 {
				periodic[i] = 0
			} else {
				periodic[i]++
			}
		}
		onSample, offSample, both := uniform(), uniform(), uniform()
		onSample[3*stride] = nan
		offSample[3*stride+1] = nan
		both[3*stride], both[5*stride+1] = nan, nan
		dupRun := uniform()
		for i, d := range dupRun {
			if d >= 0.03 && d < 0.1 {
				dupRun[i] = 0.05
			}
		}
		zeros := uniform()
		for i, d := range zeros {
			if d < 0.1 {
				zeros[i] = 0
				if i%2 == 1 {
					zeros[i] = negZero
				}
			}
		}
		for name, ds := range map[string][]float64{
			"distinct": uniform(), "periodic": periodic, "nan-on-sample": onSample, "nan-off-sample": offSample,
			"nan-both": both, "duplicates-at-k": dupRun, "signed-zeros-at-k": zeros,
		} {
			cases = append(cases, selectCase{fmt.Sprintf("%s/n=%d", name, n), ds, calibratedKs(n, rnd)})
		}
	}
	return cases
}

// TestPercentileIsReadOnlyAndExact: Percentile's selection returns the
// element sort.Float64s would leave at ds[k] and leaves ds bit-identical,
// on selectCases and on bracketCases; Percentile maps p to that rank.
func TestPercentileIsReadOnlyAndExact(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	for _, c := range append(selectCases(rnd), bracketCases(rnd)...) {
		sorted := append([]float64(nil), c.ds...)
		sort.Float64s(sorted)
		before := append([]float64(nil), c.ds...)
		for _, k := range c.ks {
			if got := orderStat(c.ds, k); !sameFloat(got, sorted[k]) {
				t.Fatalf("%s: orderStat(k=%d of %d) = %v, sort gives %v", c.name, k, len(c.ds), got, sorted[k])
			}
		}
		for _, p := range []float64{0, 0.05, 0.08, 0.5, 1} {
			if got, want := Percentile(c.ds, p), sorted[int(p*float64(len(c.ds)-1))]; !sameFloat(got, want) {
				t.Fatalf("%s: Percentile(%v) = %v, sort gives %v", c.name, p, got, want)
			}
		}
		for i := range before {
			if math.Float64bits(c.ds[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%s: selection wrote the buffer at %d: %v, was %v", c.name, i, c.ds[i], before[i])
			}
		}
	}
}

// TestBracketKthAnswersOrDeclines: on an ordinary window-sized buffer
// the bracket answers at the calibrated ranks (so TestPercentileIsReadOnlyAndExact
// checks the bracket, not only the fallback), and it provably declines —
// the fallback runs — where it cannot be trusted: below bracketMinLen, on
// a NaN at a sampled index or off it, and on a sample periodic in the
// stride that brackets only the minimum.
func TestBracketKthAnswersOrDeclines(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	byName := map[string][]float64{}
	for _, c := range bracketCases(rnd) {
		byName[c.name] = c.ds
	}
	window := fmt.Sprintf("/n=%d", 512*511/2)
	for _, name := range []string{"distinct", "duplicates-at-k", "signed-zeros-at-k"} {
		ds := byName[name+window]
		sorted := append([]float64(nil), ds...)
		sort.Float64s(sorted)
		for _, p := range []float64{0.05, 0.08, 0.5} {
			k := int(p * float64(len(ds)-1))
			if v, ok := bracketKth(ds, k); !ok || !sameFloat(v, sorted[k]) {
				t.Errorf("%s: bracketKth(k=%d) = (%v, %v), want (%v, true)", name, k, v, ok, sorted[k])
			}
		}
	}
	for _, name := range []string{"nan-on-sample", "nan-off-sample", "nan-both", "periodic"} {
		ds := byName[name+window]
		if _, ok := bracketKth(ds, len(ds)/2); ok {
			t.Errorf("%s: bracketKth answered, want it to decline", name)
		}
	}
	short := byName[fmt.Sprintf("distinct/n=%d", bracketMinLen-1)]
	if _, ok := bracketKth(short, len(short)/2); ok {
		t.Errorf("bracketKth answered on %d values, below bracketMinLen", len(short))
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

// TestPercentileTwiceFromOneBuffer: two percentiles selected from one
// PairwiseDistances buffer are the ones fresh buffers give, and the
// buffer still holds the measured distances, bit for bit, afterwards —
// what lets an unsampled window calibrate both thresholds from one
// buffer and then sweep its relations from it. n = 200 (19 900
// distances) is above bracketMinLen.
func TestPercentileTwiceFromOneBuffer(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	for _, n := range []int{2, 3, 40, 120, 200} {
		pts := make([]feature.Vector, n)
		for i := range pts {
			pts[i] = feature.Vector{float64(rnd.Intn(6)), rnd.Float64()}
		}
		for _, dist := range []feature.Distance{feature.Euclidean, feature.CosineDistance} {
			measured := PairwiseDistances(pts, dist)
			for _, ps := range [][2]float64{{0.05, 0.08}, {0.08, 0.05}, {1, 0}, {0.5, 0.5}} {
				shared := PairwiseDistances(pts, dist)
				first, second := Percentile(shared, ps[0]), Percentile(shared, ps[1])
				wantFirst := EpsPercentile(pts, dist, ps[0], 0, 1)
				wantSecond := EpsPercentile(pts, dist, ps[1], 0, 1)
				if !sameFloat(first, wantFirst) || !sameFloat(second, wantSecond) {
					t.Fatalf("n=%d p=%v: shared buffer gave (%v, %v), fresh buffers (%v, %v)",
						n, ps, first, second, wantFirst, wantSecond)
				}
				for i := range measured {
					if math.Float64bits(shared[i]) != math.Float64bits(measured[i]) {
						t.Fatalf("n=%d p=%v: slot %d reads %v after two selections, measured %v", n, ps, i, shared[i], measured[i])
					}
				}
			}
		}
	}
}

// TestPairwisePercentileBufferAndBounds: the pairwise percentile —
// EpsPercentile, and Percentile over the PairwiseDistances buffer —
// clamps p, reads a NaN p as unset, has no distances for fewer than two
// points, and the buffer holds each pair's distance in row order.
func TestPairwisePercentileBufferAndBounds(t *testing.T) {
	for _, pts := range [][]feature.Vector{nil, {{1}}} {
		if v := EpsPercentile(pts, feature.Euclidean, 0.5, 0, 1); v != 0 {
			t.Errorf("%d points: EpsPercentile = %v, want 0", len(pts), v)
		}
		if ds := PairwiseDistances(pts, feature.Euclidean); ds != nil {
			t.Errorf("%d points: PairwiseDistances = %v, want nil", len(pts), ds)
		}
	}
	pts := []feature.Vector{{0}, {1}, {3}, {7}}
	ds := PairwiseDistances(pts, feature.Euclidean)
	// Row 0: |0-1| |0-3| |0-7|; row 1: |1-3| |1-7|; row 2: |3-7|.
	want := []float64{1, 3, 7, 2, 6, 4}
	for _, tc := range []struct {
		name string
		p    float64
		want float64
	}{
		{"p=2 clamps to the maximum", 2, 7},
		{"p=-1 clamps to the minimum", -1, 1},
		// NaN passes both p < 0 and p > 1; int(NaN) used to index the
		// buffer at -9223372036854775808.
		{"p=NaN reads as unset, the minimum", math.NaN(), 1},
	} {
		if v := EpsPercentile(pts, feature.Euclidean, tc.p, 0, 1); v != tc.want {
			t.Errorf("%s: EpsPercentile = %v, want %v", tc.name, v, tc.want)
		}
		if v := Percentile(ds, tc.p); v != tc.want {
			t.Errorf("%s: Percentile = %v, want %v", tc.name, v, tc.want)
		}
	}
	if v := EpsPercentile(pts, feature.Euclidean, math.NaN(), 3, 1); !(v >= 1) {
		t.Errorf("sampled p=NaN: got %v, want a pairwise distance", v)
	}
	if v := Percentile(nil, 0.5); v != 0 {
		t.Errorf("Percentile of no distances = %v, want 0", v)
	}
	if len(ds) != len(want) {
		t.Fatalf("buffer holds %d distances, want %d", len(ds), len(want))
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("buffer = %v after the selections, want %v in row order", ds, want)
		}
	}
}
