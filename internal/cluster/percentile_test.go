package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"batcher/internal/feature"
)

// sameFloat is the equality the thresholds are used under: == (so -0
// and +0 are one value), with NaN equal to NaN.
func sameFloat(a, b float64) bool {
	return a == b || (a != a && b != b)
}

// expandSorted is the multiset holding vs[i] ws[i] times, sorted as
// sort.Float64s sorts (NaN first).
func expandSorted(vs []float64, ws []int) []float64 {
	var all []float64
	for i, v := range vs {
		for range ws[i] {
			all = append(all, v)
		}
	}
	sort.Float64s(all)
	return all
}

// sameSorted reports whether two sorted multisets are equal under
// sameFloat.
func sameSorted(a, b []float64) bool {
	return slices.EqualFunc(a, b, sameFloat)
}

// checkSelect compares the weighted selectKth against a sort of the
// expanded multiset at each k in ks, and checks that it leaves exactly
// the elements below its answer in front.
func checkSelect(t *testing.T, name string, vs []float64, ws []int, ks []int) {
	t.Helper()
	sorted := expandSorted(vs, ws)
	xs := make([]weighted, len(vs))
	for n, k := range ks {
		for i := range xs {
			xs[i] = weighted{vs[i], ws[i]}
		}
		got, below := selectKth(xs, k)
		if !sameFloat(got, sorted[k]) {
			t.Fatalf("%s: selectKth(k=%d of %d) = %v, sort gives %v", name, k, len(sorted), got, sorted[k])
		}
		for i, x := range xs {
			if (i < below) != (x.d < got) {
				t.Fatalf("%s: selectKth(k=%d) = %v left %v at %d, %d elements in front", name, k, got, x.d, i, below)
			}
		}
		// Selection permutes the weighted values, it must not lose,
		// invent or re-pair them (checked once on the window-sized
		// arrays: it costs a sort).
		if n > 0 && len(vs) > 1000 {
			continue
		}
		bv, bw := make([]float64, len(xs)), make([]int, len(xs))
		for i, x := range xs {
			bv[i], bw[i] = x.d, x.w
		}
		if !sameSorted(expandSorted(bv, bw), sorted) {
			t.Fatalf("%s: selectKth(k=%d) changed the weighted multiset", name, k)
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

// ranksOf is every rank of a multiset of total elements when that is
// few, calibratedKs otherwise.
func ranksOf(total int, rnd *rand.Rand) []int {
	if total <= 2000 {
		return everyK(total)
	}
	return calibratedKs(total, rnd)
}

// calibratedKs are the ranks worth checking in a multiset too large for
// every k: the ends, the calibrated percentiles and a random spread.
func calibratedKs(n int, rnd *rand.Rand) []int {
	ks := []int{0, 1, int(0.05 * float64(n-1)), int(0.08 * float64(n-1)), n / 2, n - 2, n - 1}
	for i := 0; i < 8; i++ {
		ks = append(ks, rnd.Intn(n))
	}
	return ks
}

// selectCase is one input of the selection test: values, no NaN among
// them (selectKth's callers weigh NaN apart).
type selectCase struct {
	name string
	vs   []float64
}

// selectCases are the inputs that break a careless quickselect — heavy
// duplicates, all-equal, signed zeros, ±Inf — at small sizes, and at one
// window's size (a 512-point window's 131 328 class pairs).
func selectCases(rnd *rand.Rand) []selectCase {
	inf, ninf := math.Inf(1), math.Inf(-1)
	negZero := math.Copysign(0, -1)
	special := []float64{inf, ninf, 0, negZero, 1, 1, 2}

	cases := []selectCase{
		{"one", []float64{3}},
		{"two", []float64{2, 1}},
		{"three", []float64{2, 3, 1}},
		{"zeros", []float64{0, negZero, 0, negZero, negZero, 0}},
		{"infs", []float64{inf, 1, inf, ninf, 0, negZero}},
	}
	for _, n := range []int{2, 3, selectInsertionMax, selectInsertionMax + 1, 100, 257} {
		gens := []struct {
			name string
			gen  func(i int) float64
		}{
			{"distinct", func(int) float64 { return rnd.Float64() }},
			{"duplicates", func(int) float64 { return float64(rnd.Intn(4)) }},
			{"all-equal", func(int) float64 { return 0.25 }},
			{"special", func(int) float64 { return special[rnd.Intn(len(special))] }},
			{"sorted-ish", func(i int) float64 { return float64(i / 3) }}, // ascending with runs
		}
		for _, g := range gens {
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = g.gen(i)
			}
			cases = append(cases, selectCase{fmt.Sprintf("%s/n=%d", g.name, n), vs})
		}
	}
	big := 512 * 513 / 2
	for name, gen := range map[string]func() float64{
		"big-distinct":   rnd.Float64,
		"big-duplicates": func() float64 { return float64(rnd.Intn(50)) / 8 },
		"big-special":    func() float64 { return special[rnd.Intn(len(special))] },
	} {
		vs := make([]float64, big)
		for i := range vs {
			vs[i] = gen()
		}
		cases = append(cases, selectCase{name, vs})
	}
	return cases
}

// TestSelectKthMatchesSort is the exactness contract of the percentile
// thresholds: weighted selection returns the element sort.Float64s would
// leave at index k of the expanded multiset, with every weight 1 (plain
// selection), with weights 0–4, and with a single weighted element.
func TestSelectKthMatchesSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, c := range selectCases(rnd) {
		ones, random, single := make([]int, len(c.vs)), make([]int, len(c.vs)), make([]int, len(c.vs))
		total := 0
		for i := range c.vs {
			ones[i] = 1
			random[i] = rnd.Intn(5)
			total += random[i]
		}
		single[rnd.Intn(len(c.vs))] = 3
		checkSelect(t, c.name+"/unit", c.vs, ones, ranksOf(len(c.vs), rnd))
		if total > 0 {
			checkSelect(t, c.name+"/weighted", c.vs, random, ranksOf(total, rnd))
		}
		checkSelect(t, c.name+"/single", c.vs, single, everyK(3))
	}
}

// classBuffer is a Distances over classes of the given sizes, with d
// laid out as Measure lays it out (row-major over the class pairs
// a <= b) and the points of each class contiguous.
func classBuffer(size []int, d []float64) *Distances {
	u := len(size)
	if len(d) != u*(u+1)/2 {
		panic(fmt.Sprintf("classBuffer: %d distances for %d classes", len(d), u))
	}
	var vc valueClasses
	for c, s := range size {
		vc.first = append(vc.first, int32(len(vc.of)))
		for range s {
			vc.of = append(vc.of, int32(c))
		}
	}
	return &Distances{vc: vc, size: size, d: d}
}

// expandedOf is the sorted multiset a class buffer stands for, built
// without the package's layout helpers: class pair (a, b), a < b, once
// per pair of their members, and (a, a) once per pair inside class a.
func expandedOf(size []int, d []float64) []float64 {
	var vs []float64
	var ws []int
	at := 0
	for a := range size {
		for b := a; b < len(size); b++ {
			w := size[a] * size[b]
			if a == b {
				w = size[a] * (size[a] - 1) / 2
			}
			vs, ws = append(vs, d[at]), append(ws, w)
			at++
		}
	}
	return expandSorted(vs, ws)
}

// bufferCase is a class buffer and the ranks to check in it.
type bufferCase struct {
	name string
	size []int
	d    []float64
	ks   []int
}

func newBufferCase(name string, size []int, d []float64, rnd *rand.Rand) bufferCase {
	n := 0
	for _, s := range size {
		n += s
	}
	var ks []int
	if total := n * (n - 1) / 2; total > 0 {
		ks = ranksOf(total, rnd)
	}
	return bufferCase{name, size, d, ks}
}

// bufferCases are class buffers of every shape Measure makes: one class
// (U = 1), all classes of one point (U = n, the diagonal weighing
// nothing) and duplicates (classes of 1–6 points), filled with
// distinct values, duplicates, one value, special values (NaN, ±Inf,
// ±0) and ascending runs, from 1 class to a 512-point window's.
func bufferCases(rnd *rand.Rand) []bufferCase {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	special := []float64{nan, inf, 0, negZero, 1, 1, 2}
	gens := []struct {
		name string
		gen  func(i int) float64
	}{
		{"distinct", func(int) float64 { return rnd.Float64() }},
		{"duplicates", func(int) float64 { return float64(rnd.Intn(4)) }},
		{"all-equal", func(int) float64 { return 0.25 }},
		{"special", func(int) float64 { return special[rnd.Intn(len(special))] }},
		{"sorted-ish", func(i int) float64 { return float64(i / 3) }},
	}
	var cases []bufferCase
	for _, u := range []int{1, 2, 3, 17, 100, 181, 512} {
		sizings := map[string][]int{"singletons": make([]int, u), "duplicates": make([]int, u)}
		// Classes of up to 6 points, of up to 2 at a window's U, where
		// the expanded oracle would otherwise sort 1.6 M distances.
		most := 6
		if u > 200 {
			most = 2
		}
		for c := 0; c < u; c++ {
			sizings["singletons"][c] = 1
			sizings["duplicates"][c] = 1 + rnd.Intn(most)
		}
		if u == 1 {
			sizings["one class"] = []int{40}
		}
		for sname, size := range sizings {
			for _, g := range gens {
				d := make([]float64, u*(u+1)/2)
				for i := range d {
					d[i] = g.gen(i)
				}
				cases = append(cases, newBufferCase(fmt.Sprintf("%s/%s/U=%d", g.name, sname, u), size, d, rnd))
			}
		}
	}
	return cases
}

// bracketCases are class buffers built to defeat bracket's strided
// sample, at lengths on both sides of bracketMinLen and at one window's
// length, with singleton and duplicate classes: values periodic in the
// stride (every sampled value is the minimum), a NaN at a sampled index,
// one off it, and both; a run of duplicates and a run of mixed-sign
// zeros straddling the calibrated ranks.
func bracketCases(rnd *rand.Rand) []bufferCase {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	var cases []bufferCase
	for _, u := range []int{180, 181, 260, 512} {
		m := u * (u + 1) / 2
		stride := m / bracketSample
		uniform := func() []float64 {
			d := make([]float64, m)
			for i := range d {
				d[i] = rnd.Float64()
			}
			return d
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
		singletons, duplicates := make([]int, u), make([]int, u)
		for c := range singletons {
			singletons[c] = 1
			duplicates[c] = 1 + rnd.Intn(2)
		}
		for _, sizing := range []struct {
			name string
			size []int
		}{{"singletons", singletons}, {"duplicates", duplicates}} {
			for name, d := range map[string][]float64{
				"distinct": uniform(), "periodic": periodic, "nan-on-sample": onSample, "nan-off-sample": offSample,
				"nan-both": both, "duplicates-at-k": dupRun, "signed-zeros-at-k": zeros,
			} {
				cases = append(cases, newBufferCase(fmt.Sprintf("%s/%s/U=%d", name, sizing.name, u), sizing.size, d, rnd))
			}
		}
	}
	return cases
}

// percentiles are the p values the percentile tests ask for: the ends,
// the calibrated ones, and the out-of-range and NaN ones that clamp.
var percentiles = []float64{0, 0.05, 0.08, 0.5, 1, math.NaN(), 1.5, -0.5}

// rankOf is the index Percentile(p) reads in a sorted multiset of total
// elements: p clamped to [0, 1], NaN read as 0.
func rankOf(p float64, total int) int {
	if !(p > 0) {
		p = 0
	}
	return int(math.Min(p, 1) * float64(total-1))
}

// TestPercentileIsReadOnlyAndExact: a class buffer's weighted order
// statistics, asked for all at once, are the elements sort.Float64s
// would leave at those ranks of the expanded multiset, Percentiles maps
// each p to its rank, asked for together or one by one, and the buffer
// is bit-identical afterwards, on bufferCases and on bracketCases.
func TestPercentileIsReadOnlyAndExact(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	for _, c := range append(bufferCases(rnd), bracketCases(rnd)...) {
		ds := classBuffer(c.size, c.d)
		sorted := expandedOf(c.size, c.d)
		if len(sorted) != ds.pairs() {
			t.Fatalf("%s: %d expanded distances, want n(n-1)/2 = %d", c.name, len(sorted), ds.pairs())
		}
		before := slices.Clone(c.d)
		for i, got := range ds.orderStats(c.ks) {
			if k := c.ks[i]; !sameFloat(got, sorted[k]) {
				t.Fatalf("%s: orderStats(k=%d of %d) = %v, sort gives %v", c.name, k, len(sorted), got, sorted[k])
			}
		}
		together := ds.Percentiles(percentiles...)
		for i, p := range percentiles {
			want := 0.0
			if len(sorted) > 0 {
				want = sorted[rankOf(p, len(sorted))]
			}
			if got := ds.Percentiles(p)[0]; !sameFloat(got, want) || !sameFloat(together[i], want) {
				t.Fatalf("%s: Percentiles(%v) = %v alone, %v with the others, sort gives %v", c.name, p, got, together[i], want)
			}
		}
		for i := range before {
			if math.Float64bits(c.d[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%s: selection wrote the buffer at %d: %v, was %v", c.name, i, c.d[i], before[i])
			}
		}
	}
}

// bracketPass runs the first selectRanks pass of orderStats on the
// bracket of ks: the values it answers, the indices it misses, and the
// bounds.
func bracketPass(ds *Distances, ks []int) (out []float64, missed []int, lo, hi float64) {
	all := make([]int, len(ks))
	for i := range all {
		all[i] = i
	}
	lo, hi, capHint := ds.bracket(ks)
	out = make([]float64, len(ks))
	return out, ds.selectRanks(lo, hi, capHint, ks, all, out), lo, hi
}

// TestBracketKthAnswersOrDeclines: on a window-sized class buffer the
// bracket is finite and its one pass answers the calibrated ranks, with
// singleton and with duplicate classes and with NaN distances weighed
// in front — a rank among the NaN distances included — so
// TestPercentileIsReadOnlyAndExact checks the bracket, not only the
// full copy. It provably declines — the full copy runs — where it
// cannot answer: below bracketMinLen (no bounds), and on a sample
// periodic in the stride that brackets only the minimum.
func TestBracketKthAnswersOrDeclines(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	byName := map[string]bufferCase{}
	for _, c := range bracketCases(rnd) {
		byName[c.name] = c
	}
	for _, sizing := range []string{"singletons", "duplicates"} {
		window := fmt.Sprintf("/%s/U=512", sizing)
		for _, name := range []string{"distinct", "duplicates-at-k", "signed-zeros-at-k", "nan-on-sample", "nan-off-sample", "nan-both"} {
			c := byName[name+window]
			ds, sorted := classBuffer(c.size, c.d), expandedOf(c.size, c.d)
			var ks []int
			for _, p := range []float64{0.5, 0.05, 0.08} {
				ks = append(ks, int(p*float64(len(sorted)-1)))
			}
			if name == "nan-on-sample" {
				if !math.IsNaN(sorted[0]) {
					t.Fatalf("%s: the NaN distance weighs nothing", c.name)
				}
				ks = append(ks, 0)
			}
			out, missed, lo, hi := bracketPass(ds, ks)
			if (math.IsInf(lo, -1) && slices.Min(ks) > 0) || math.IsInf(hi, 1) {
				t.Errorf("%s: bracket [%v, %v] is not finite", c.name, lo, hi)
			}
			if len(missed) > 0 {
				t.Errorf("%s: the bracket missed ranks %v of %v", c.name, missed, ks)
			}
			for i, k := range ks {
				if !sameFloat(out[i], sorted[k]) {
					t.Errorf("%s: bracket pass gave %v at rank %d, want %v", c.name, out[i], k, sorted[k])
				}
			}
		}
		c := byName["periodic"+window]
		if _, missed, _, _ := bracketPass(classBuffer(c.size, c.d), []int{c.ks[4]}); len(missed) != 1 {
			t.Errorf("%s: the bracket answered the median, want it to miss", c.name)
		}
		short := byName[fmt.Sprintf("distinct/%s/U=180", sizing)]
		ds := classBuffer(short.size, short.d)
		if len(ds.d) >= bracketMinLen {
			t.Fatalf("%d class pairs at U = 180, want fewer than bracketMinLen", len(ds.d))
		}
		if lo, hi, capHint := ds.bracket([]int{1, ds.pairs() / 2}); !math.IsInf(lo, -1) || !math.IsInf(hi, 1) || capHint != len(ds.d) {
			t.Errorf("bracket on %d class pairs, below bracketMinLen, is [%v, %v] for %d, want everything", len(ds.d), lo, hi, capHint)
		}
	}
}

// paletteDistance is a feature.Distance over one-component vectors that
// index a symmetric table: dist({i}, {j}) = table[i][j]. It puts any
// value — NaN, ±Inf, ±0 — at any pair of values, the diagonal included.
func paletteDistance(table [][]float64) feature.Distance {
	return func(a, b feature.Vector) float64 { return table[int(a[0])][int(b[0])] }
}

// symmetricTable is a u x u symmetric table drawn from gen.
func symmetricTable(u int, gen func() float64) [][]float64 {
	table := make([][]float64, u)
	for i := range table {
		table[i] = make([]float64, u)
	}
	for i := range table {
		for j := i; j < u; j++ {
			table[i][j] = gen()
			table[j][i] = table[i][j]
		}
	}
	return table
}

// TestPercentileMatchesExpandedMultiset is the weighted percentile's
// property test on point sets: Measure(points).Percentiles(p)[0] is the
// element sort.Float64s leaves at int(p·(n(n−1)/2−1)) of the n(n−1)/2
// distances dist(points[i], points[j]), i < j, and All yields exactly
// that multiset. The point sets: one value (U = 1), all distinct
// (U = n), heavy duplicates (few values), duplicates over a buffer long
// enough for the bracket; under a palette distance with NaN (ordered
// first), ±0 and +Inf, and under CosineDistance with zero-vector
// singletons, whose distance to themselves (1) is no pair's.
func TestPercentileMatchesExpandedMultiset(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	negZero := math.Copysign(0, -1)
	special := []float64{math.NaN(), math.Inf(1), 0, negZero, 0.5, 1, 1}
	gens := map[string]func() float64{
		"plain":   rnd.Float64,
		"grid":    func() float64 { return float64(rnd.Intn(5)) / 4 },
		"special": func() float64 { return special[rnd.Intn(len(special))] },
		"rare-nan": func() float64 {
			if rnd.Intn(200) == 0 {
				return math.NaN()
			}
			return rnd.Float64()
		},
	}
	type pointSet struct {
		name    string
		n, vals int
	}
	sets := []pointSet{
		{"empty", 0, 1}, {"one point", 1, 1}, {"U=1", 40, 1}, {"U=n", 64, 64}, {"U=n window", 512, 512},
		{"heavy duplicates", 300, 6}, {"duplicates over the bracket", 700, 200},
	}
	checked := 0
	for _, s := range sets {
		for gname, gen := range gens {
			dist := paletteDistance(symmetricTable(s.vals, gen))
			pts := make([]feature.Vector, s.n)
			for i := range pts {
				v := rnd.Intn(s.vals)
				if s.vals == s.n {
					v = i
				}
				pts[i] = feature.Vector{float64(v)}
			}
			checkExpanded(t, fmt.Sprintf("%s/%s", s.name, gname), pts, dist)
			checked++
		}
	}
	// Cosine distance: random directions, a few of them repeated, and
	// zero vectors of four lengths (distinct values), each once.
	for _, n := range []int{2, 3, 50, 400} {
		pts := []feature.Vector{{}, {0}, {0, 0}, {negZero, 0}}
		for len(pts) < n+4 {
			if v := pts[len(pts)-1]; len(pts) > 4 && rnd.Intn(3) == 0 {
				pts = append(pts, append(feature.Vector{}, v...))
				continue
			}
			pts = append(pts, feature.Vector{rnd.NormFloat64(), rnd.NormFloat64()})
		}
		rnd.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		checkExpanded(t, fmt.Sprintf("cosine with zero singletons/n=%d", len(pts)), pts, feature.CosineDistance)
	}
	// Zero vectors alone: every pair is at 1, and so is every diagonal,
	// but two points have one pair and one point none.
	for _, pts := range [][]feature.Vector{{{0, 0}}, {{0, 0}, {}}} {
		checkExpanded(t, fmt.Sprintf("%d zero vectors", len(pts)), pts, feature.CosineDistance)
	}
	if checked == 0 {
		t.Fatal("no point set checked")
	}
}

// checkExpanded compares Measure(pts, dist) against the n(n−1)/2
// distances of pts: Percentile at every p of percentiles, and All's
// expansion as a whole.
func checkExpanded(t *testing.T, at string, pts []feature.Vector, dist feature.Distance) {
	t.Helper()
	var all []float64
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			all = append(all, dist(pts[i], pts[j]))
		}
	}
	sort.Float64s(all)
	ds := Measure(pts, dist)
	for _, p := range percentiles {
		want := 0.0
		if len(all) > 0 {
			want = all[rankOf(p, len(all))]
		}
		if got := ds.Percentiles(p)[0]; !sameFloat(got, want) {
			t.Fatalf("%s (U = %d of %d): Percentile(%v) = %v, sorted pairs give %v", at, len(ds.size), len(pts), p, got, want)
		}
	}
	var vs []float64
	var ws []int
	for d, w := range ds.All() {
		if w <= 0 {
			t.Fatalf("%s: All yielded %v with weight %d", at, d, w)
		}
		vs, ws = append(vs, d), append(ws, w)
	}
	if got := expandSorted(vs, ws); !sameSorted(got, all) {
		t.Fatalf("%s: All expands to %d distances, not the %d sorted pairs", at, len(got), len(all))
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
// Distances, in one call or in two, are the ones fresh measurements
// give, and the buffer still holds the measured distances, bit for
// bit, afterwards — what lets an unsampled window calibrate both
// thresholds from one buffer and then sweep its relations from it.
// n = 200 (20 100 class pairs) is above bracketMinLen.
func TestPercentileTwiceFromOneBuffer(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	for _, n := range []int{2, 3, 40, 120, 200} {
		pts := make([]feature.Vector, n)
		for i := range pts {
			pts[i] = feature.Vector{float64(rnd.Intn(6)), rnd.Float64()}
		}
		for _, dist := range []feature.Distance{feature.Euclidean, feature.CosineDistance} {
			measured := Measure(pts, dist)
			for _, ps := range [][2]float64{{0.05, 0.08}, {0.08, 0.05}, {1, 0}, {0.5, 0.5}} {
				shared := Measure(pts, dist)
				both := shared.Percentiles(ps[0], ps[1])
				first, second := shared.Percentiles(ps[0])[0], shared.Percentiles(ps[1])[0]
				wantFirst := EpsPercentile(pts, dist, ps[0], 0, 1)
				wantSecond := EpsPercentile(pts, dist, ps[1], 0, 1)
				if !sameFloat(first, wantFirst) || !sameFloat(second, wantSecond) ||
					!sameFloat(both[0], wantFirst) || !sameFloat(both[1], wantSecond) {
					t.Fatalf("n=%d p=%v: shared buffer gave (%v, %v) in two calls and %v in one, fresh buffers (%v, %v)",
						n, ps, first, second, both, wantFirst, wantSecond)
				}
				for i := range measured.d {
					if math.Float64bits(shared.d[i]) != math.Float64bits(measured.d[i]) {
						t.Fatalf("n=%d p=%v: slot %d reads %v after two selections, measured %v", n, ps, i, shared.d[i], measured.d[i])
					}
				}
			}
		}
	}
}

// TestPairwisePercentileBufferAndBounds: the pairwise percentile —
// EpsPercentile, and Percentile of a Measure — clamps p, reads a NaN p
// as unset, has no distances for fewer than two points, and the buffer
// holds each class pair's distance in row order, diagonal first.
func TestPairwisePercentileBufferAndBounds(t *testing.T) {
	for _, pts := range [][]feature.Vector{nil, {{1}}} {
		if v := EpsPercentile(pts, feature.Euclidean, 0.5, 0, 1); v != 0 {
			t.Errorf("%d points: EpsPercentile = %v, want 0", len(pts), v)
		}
		if v := Measure(pts, feature.Euclidean).Percentiles(0.5)[0]; v != 0 {
			t.Errorf("%d points: Percentile = %v, want 0", len(pts), v)
		}
	}
	pts := []feature.Vector{{0}, {1}, {3}, {7}}
	ds := Measure(pts, feature.Euclidean)
	// Row 0: |0-0| |0-1| |0-3| |0-7|; row 1: |1-1| |1-3| |1-7|; row 2:
	// |3-3| |3-7|; row 3: |7-7|.
	want := []float64{0, 1, 3, 7, 0, 2, 6, 0, 4, 0}
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
		if v := ds.Percentiles(tc.p)[0]; v != tc.want {
			t.Errorf("%s: Percentile = %v, want %v", tc.name, v, tc.want)
		}
	}
	if v := EpsPercentile(pts, feature.Euclidean, math.NaN(), 3, 1); !(v >= 1) {
		t.Errorf("sampled p=NaN: got %v, want a pairwise distance", v)
	}
	if !slices.Equal(ds.d, want) {
		t.Fatalf("buffer = %v after the selections, want %v in row order", ds.d, want)
	}
}
