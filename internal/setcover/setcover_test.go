package setcover

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// matrixInstance builds an Instance from an explicit boolean cover matrix
// cover[d][q].
func matrixInstance(cover [][]bool, weights []float64) Instance {
	inst := Instance{
		NumDemos:     len(cover),
		NumQuestions: 0,
		Covers:       func(d, q int) bool { return cover[d][q] },
	}
	if len(cover) > 0 {
		inst.NumQuestions = len(cover[0])
	}
	if weights != nil {
		inst.Weight = func(d int) float64 { return weights[d] }
	}
	return inst
}

func TestGreedyCoversAll(t *testing.T) {
	// d0 covers q0,q1; d1 covers q1,q2; d2 covers q2 only.
	cover := [][]bool{
		{true, true, false},
		{false, true, true},
		{false, false, true},
	}
	inst := matrixInstance(cover, nil)
	sel := Greedy(inst)
	if _, complete := Coverage(inst, sel); !complete {
		t.Fatalf("selection %v does not cover all questions", sel)
	}
	if len(sel) != 2 {
		t.Errorf("greedy picked %d demos, want 2 (d0+d1)", len(sel))
	}
}

func TestGreedyPrefersHighCoverage(t *testing.T) {
	// One demo covers everything; greedy must pick exactly it.
	cover := [][]bool{
		{true, false, false, false},
		{true, true, true, true},
		{false, false, true, false},
	}
	sel := Greedy(matrixInstance(cover, nil))
	if len(sel) != 1 || sel[0] != 1 {
		t.Errorf("greedy = %v, want [1]", sel)
	}
}

func TestGreedyWeighted(t *testing.T) {
	// d0 covers both questions but is very heavy; d1/d2 cover one each and
	// are cheap. Greedy with weights should prefer the cheap pair.
	cover := [][]bool{
		{true, true},
		{true, false},
		{false, true},
	}
	weights := []float64{100, 1, 1}
	inst := matrixInstance(cover, weights)
	sel := Greedy(inst)
	if _, complete := Coverage(inst, sel); !complete {
		t.Fatalf("incomplete cover %v", sel)
	}
	var total float64
	for _, d := range sel {
		total += weights[d]
	}
	if total > 2 {
		t.Errorf("greedy weight %v with %v, want cheap pair", total, sel)
	}
}

func TestGreedyUncoverableQuestionIgnored(t *testing.T) {
	// q2 is covered by nobody; greedy must still terminate and cover q0,q1.
	cover := [][]bool{
		{true, false, false},
		{false, true, false},
	}
	inst := matrixInstance(cover, nil)
	sel := Greedy(inst)
	covered, complete := Coverage(inst, sel)
	if !complete {
		t.Error("expected complete over coverable subset")
	}
	if covered != 2 {
		t.Errorf("covered = %d, want 2", covered)
	}
}

func TestGreedyEmptyInstance(t *testing.T) {
	sel := Greedy(Instance{NumQuestions: 0, NumDemos: 0, Covers: func(d, q int) bool { return false }})
	if len(sel) != 0 {
		t.Errorf("greedy on empty = %v", sel)
	}
}

func TestGreedyNoDemos(t *testing.T) {
	inst := Instance{NumQuestions: 5, NumDemos: 0, Covers: func(d, q int) bool { return true }}
	if sel := Greedy(inst); len(sel) != 0 {
		t.Errorf("greedy with no demos = %v", sel)
	}
}

func TestGreedyZeroWeightGuard(t *testing.T) {
	cover := [][]bool{{true}}
	inst := matrixInstance(cover, []float64{0})
	sel := Greedy(inst)
	if len(sel) != 1 {
		t.Errorf("zero-weight demo not handled: %v", sel)
	}
}

func TestGreedyDeterministicTieBreak(t *testing.T) {
	// Two identical demos: lower index wins.
	cover := [][]bool{
		{true, true},
		{true, true},
	}
	for i := 0; i < 10; i++ {
		sel := Greedy(matrixInstance(cover, nil))
		if len(sel) != 1 || sel[0] != 0 {
			t.Fatalf("tie-break unstable: %v", sel)
		}
	}
}

func TestGreedyApproximationOnRandomInstances(t *testing.T) {
	// Property: greedy always achieves a complete cover when one exists,
	// and for unit weights its size is within Hk of a brute-force optimum
	// on small instances.
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nd, nq := 6, 8
		cover := make([][]bool, nd)
		for d := range cover {
			cover[d] = make([]bool, nq)
			for q := range cover[d] {
				cover[d][q] = rnd.Float64() < 0.4
			}
		}
		// Ensure every question is coverable so OPT exists.
		for q := 0; q < nq; q++ {
			cover[rnd.Intn(nd)][q] = true
		}
		inst := matrixInstance(cover, nil)
		sel := Greedy(inst)
		if _, complete := Coverage(inst, sel); !complete {
			t.Fatalf("trial %d: greedy incomplete", trial)
		}
		opt := bruteForceOpt(cover)
		maxCover := 0
		for d := range cover {
			c := 0
			for q := range cover[d] {
				if cover[d][q] {
					c++
				}
			}
			if c > maxCover {
				maxCover = c
			}
		}
		bound := Hk(maxCover) * float64(opt)
		if float64(len(sel)) > bound+1e-9 {
			t.Fatalf("trial %d: greedy %d exceeds Hk bound %.3f (opt %d)", trial, len(sel), bound, opt)
		}
	}
}

// bruteForceOpt finds the minimum unit-weight cover size by enumeration.
func bruteForceOpt(cover [][]bool) int {
	nd := len(cover)
	nq := len(cover[0])
	best := nd + 1
	for mask := 0; mask < 1<<nd; mask++ {
		size := 0
		covered := make([]bool, nq)
		for d := 0; d < nd; d++ {
			if mask&(1<<d) == 0 {
				continue
			}
			size++
			for q := 0; q < nq; q++ {
				if cover[d][q] {
					covered[q] = true
				}
			}
		}
		ok := true
		for q := 0; q < nq; q++ {
			if !covered[q] {
				ok = false
				break
			}
		}
		if ok && size < best {
			best = size
		}
	}
	return best
}

// greedyLists is Greedy as it was written over per-demonstration cover
// lists, rescanning every list on every pick. It is kept as the oracle:
// the bit-matrix Greedy must return the same indices in the same order.
func greedyLists(inst Instance) []int {
	weight := inst.Weight
	if weight == nil {
		weight = func(int) float64 { return 1 }
	}
	coverable := make([]bool, inst.NumQuestions)
	coversQ := make([][]int, inst.NumDemos) // demo -> covered questions
	for d := 0; d < inst.NumDemos; d++ {
		for q := 0; q < inst.NumQuestions; q++ {
			if inst.Covers(d, q) {
				coversQ[d] = append(coversQ[d], q)
				coverable[q] = true
			}
		}
	}
	target := 0
	for _, c := range coverable {
		if c {
			target++
		}
	}
	covered := make([]bool, inst.NumQuestions)
	selected := make([]bool, inst.NumDemos)
	var out []int
	numCovered := 0
	for numCovered < target {
		best, bestRatio, bestGain := -1, 0.0, 0
		for d := 0; d < inst.NumDemos; d++ {
			if selected[d] {
				continue
			}
			gain := 0
			for _, q := range coversQ[d] {
				if !covered[q] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			w := weight(d)
			if w <= 0 {
				w = 1e-12
			}
			ratio := float64(gain) / w
			if best == -1 || ratio > bestRatio || (ratio == bestRatio && gain > bestGain) {
				best, bestRatio, bestGain = d, ratio, gain
			}
		}
		if best == -1 {
			break
		}
		selected[best] = true
		out = append(out, best)
		for _, q := range coversQ[best] {
			if !covered[q] {
				covered[q] = true
				numCovered++
			}
		}
	}
	return out
}

// forceCoverPath runs fn with the parallel row build forced on (every
// instance, on four workers whatever the host) or off (none).
func forceCoverPath(parallel bool, fn func()) {
	defer func(v int) { minParallelCover = v }(minParallelCover)
	minParallelCover = math.MaxInt
	if parallel {
		minParallelCover = 0
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	fn()
}

// TestGreedyMatchesListOracle is the exactness contract of the
// bit-matrix Greedy: same indices, same order as the list-based
// implementation, on random weighted instances that exercise ties, the
// nonpositive-weight guard, uncoverable questions, row widths around
// the 64-bit word boundary, and both the serial and the parallel build.
func TestGreedyMatchesListOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	// A few weights, repeated, so ratio ties and gain ties are common;
	// zero and negative ones hit the guard.
	weightPool := []float64{1, 1, 2, 2, 3, 0.5, 0, -1, 7}
	for _, nq := range []int{1, 63, 64, 65, 513} {
		for _, nd := range []int{0, 1, 7, 90} {
			for _, density := range []float64{0.01, 0.08, 0.5} {
				for _, weighted := range []bool{false, true} {
					cover := make([][]bool, nd)
					for d := range cover {
						cover[d] = make([]bool, nq)
						for q := range cover[d] {
							// Every seventh question is out of reach.
							cover[d][q] = q%7 != 3 && rnd.Float64() < density
						}
					}
					// Duplicate rows: full ties down to the index.
					for d := 3; d < nd; d += 5 {
						copy(cover[d], cover[d-2])
					}
					var weights []float64
					if weighted {
						weights = make([]float64, nd)
						for d := range weights {
							weights[d] = weightPool[rnd.Intn(len(weightPool))]
						}
					}
					inst := matrixInstance(cover, weights)
					inst.NumQuestions = nq // matrixInstance reads it off row 0, absent when nd == 0
					want := greedyLists(inst)
					for _, parallel := range []bool{false, true} {
						forceCoverPath(parallel, func() {
							got := Greedy(inst)
							if len(got) != len(want) {
								t.Fatalf("nq=%d nd=%d density=%v weighted=%v parallel=%v: picked %v, oracle %v",
									nq, nd, density, weighted, parallel, got, want)
							}
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("nq=%d nd=%d density=%v weighted=%v parallel=%v: pick %d is %d, oracle %d\n got %v\nwant %v",
										nq, nd, density, weighted, parallel, i, got[i], want[i], got, want)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestGreedyRowsReadsPrebuiltRows: GreedyRows on a caller-built matrix
// picks what Greedy picks from the predicate, and leaves the matrix as
// it found it — covering selection runs stage 2 off the same rows.
func TestGreedyRowsReadsPrebuiltRows(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 64, 65, 200} {
		words := (n + 63) / 64
		rows := make([]uint64, n*words)
		for d := 0; d < n; d++ {
			for q := 0; q < n; q++ {
				if d == q || rnd.Float64() < 0.05 {
					rows[d*words+q>>6] |= 1 << (q & 63)
				}
			}
		}
		before := append([]uint64(nil), rows...)
		weight := func(d int) float64 { return float64(1 + d%3) }
		got := GreedyRows(n, n, rows, weight)
		want := Greedy(Instance{
			NumQuestions: n, NumDemos: n, Weight: weight,
			Covers: func(d, q int) bool { return before[d*words+q>>6]>>(q&63)&1 != 0 },
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: GreedyRows picked %v, Greedy %v", n, got, want)
		}
		if !reflect.DeepEqual(rows, before) {
			t.Fatalf("n=%d: GreedyRows wrote to its rows", n)
		}
	}
}

func TestGreedyThreshold(t *testing.T) {
	// Demos at 0 and 10; questions at 1, 2, 9. Threshold 3.
	demoPos := []float64{0, 10}
	qPos := []float64{1, 2, 9}
	dist := func(d, q int) float64 { return math.Abs(demoPos[d] - qPos[q]) }
	sel := GreedyThreshold(2, 3, dist, 3, nil)
	if len(sel) != 2 {
		t.Fatalf("GreedyThreshold = %v, want both demos", sel)
	}
}

func TestGreedyThresholdStrictInequality(t *testing.T) {
	// Coverage requires dist < t strictly (paper: dist(q,d) < t).
	dist := func(d, q int) float64 { return 1.0 }
	sel := GreedyThreshold(1, 1, dist, 1.0, nil)
	if len(sel) != 0 {
		t.Errorf("dist == t should not cover; got %v", sel)
	}
}

func TestHk(t *testing.T) {
	if got := Hk(1); got != 1 {
		t.Errorf("Hk(1) = %v", got)
	}
	if got := Hk(2); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Hk(2) = %v", got)
	}
	if got := Hk(0); got != 0 {
		t.Errorf("Hk(0) = %v", got)
	}
	if got := Hk(4); math.Abs(got-(1+0.5+1.0/3+0.25)) > 1e-12 {
		t.Errorf("Hk(4) = %v", got)
	}
}

func TestBatchCoverBound(t *testing.T) {
	if got := BatchCoverBound(1); got != 1 {
		t.Errorf("bound(1) = %v", got)
	}
	if got := BatchCoverBound(2); got != 1 {
		t.Errorf("bound(2) = %v", got)
	}
	b8 := BatchCoverBound(8)
	want := math.Log(8) - math.Log(math.Log(8)) + 1
	if math.Abs(b8-want) > 1e-12 {
		t.Errorf("bound(8) = %v, want %v", b8, want)
	}
	if BatchCoverBound(64) <= BatchCoverBound(8) {
		t.Error("bound should grow with batch size")
	}
}

func TestCoverageCounts(t *testing.T) {
	cover := [][]bool{
		{true, false, false},
		{false, true, false},
	}
	inst := matrixInstance(cover, nil)
	covered, complete := Coverage(inst, []int{0})
	if covered != 1 || complete {
		t.Errorf("Coverage([0]) = %d,%v", covered, complete)
	}
	covered, complete = Coverage(inst, []int{0, 1})
	if covered != 2 || !complete {
		t.Errorf("Coverage([0,1]) = %d,%v", covered, complete)
	}
}

func BenchmarkGreedyMediumInstance(b *testing.B) {
	rnd := rand.New(rand.NewSource(13))
	nd, nq := 200, 500
	cover := make([][]bool, nd)
	for d := range cover {
		cover[d] = make([]bool, nq)
		for q := range cover[d] {
			cover[d][q] = rnd.Float64() < 0.05
		}
	}
	inst := matrixInstance(cover, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(inst)
	}
}
