package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/feature"
)

func vecsFrom(xs ...float64) []feature.Vector {
	out := make([]feature.Vector, len(xs))
	for i, x := range xs {
		out[i] = feature.Vector{x}
	}
	return out
}

func dummyPool(n int) []entity.Pair {
	out := make([]entity.Pair, n)
	for i := range out {
		out[i] = entity.Pair{
			A:     entity.NewRecord("a", []string{"t"}, []string{"value one two three"}),
			B:     entity.NewRecord("b", []string{"t"}, []string{"value one two four"}),
			Truth: entity.Label(i % 2),
		}
	}
	return out
}

func TestFixedSelectionSharedAcrossBatches(t *testing.T) {
	cfg := Config{NumDemos: 3, Seed: 5}.applyDefaults()
	cfg.NumDemos = 3
	batches := Batches{{0, 1}, {2, 3}}
	sel := fixedSelection(cfg, batches, 10)
	if len(sel.labeled) != 3 {
		t.Fatalf("labeled = %v, want 3 entries", sel.labeled)
	}
	if len(sel.perBatch) != 2 {
		t.Fatalf("perBatch = %v", sel.perBatch)
	}
	for i := range sel.perBatch[0] {
		if sel.perBatch[0][i] != sel.perBatch[1][i] {
			t.Error("fixed selection differs across batches")
		}
	}
}

func TestFixedSelectionSmallPool(t *testing.T) {
	cfg := Config{Seed: 1}.applyDefaults() // NumDemos 8
	sel := fixedSelection(cfg, Batches{{0}}, 3)
	if len(sel.labeled) != 3 {
		t.Errorf("labeled = %v, want whole pool", sel.labeled)
	}
}

func TestTopKBatchUsesMinDistance(t *testing.T) {
	// Batch = questions at 0 and 100. Demo at 99 is nearest to the batch
	// under Eq. 6 even though it is far from question 0.
	qVecs := vecsFrom(0, 100)
	dVecs := vecsFrom(50, 99, 200)
	cfg := Config{NumDemos: 1, Seed: 1}.applyDefaults()
	cfg.NumDemos = 1
	sel := topKBatchSelection(cfg, Batches{{0, 1}}, qVecs, dVecs)
	if len(sel.perBatch[0]) != 1 || sel.perBatch[0][0] != 1 {
		t.Errorf("topk-batch picked %v, want demo 1 (at 99)", sel.perBatch[0])
	}
}

func TestTopKBatchLabelsDeduplicated(t *testing.T) {
	qVecs := vecsFrom(0, 1, 100, 101)
	dVecs := vecsFrom(0.5, 100.5)
	cfg := Config{Seed: 1}.applyDefaults()
	cfg.NumDemos = 1
	sel := topKBatchSelection(cfg, Batches{{0, 1}, {2, 3}}, qVecs, dVecs)
	if len(sel.labeled) != 2 {
		t.Errorf("labeled = %v", sel.labeled)
	}
	// Same demo chosen by both batches must be annotated once.
	sel2 := topKBatchSelection(cfg, Batches{{0}, {1}}, qVecs, dVecs)
	if len(sel2.labeled) != 1 {
		t.Errorf("shared demo labeled %d times", len(sel2.labeled))
	}
}

func TestTopKQuestionPerQuestionNeighbors(t *testing.T) {
	// k = NumDemos/BatchSize = 1: each question pulls its own nearest.
	qVecs := vecsFrom(0, 50, 100)
	dVecs := vecsFrom(1, 51, 99, 1000)
	cfg := Config{BatchSize: 3, NumDemos: 3, Seed: 1}.applyDefaults()
	cfg.BatchSize, cfg.NumDemos = 3, 3
	sel := topKQuestionSelection(cfg, Batches{{0, 1, 2}}, qVecs, dVecs)
	want := []int{0, 1, 2}
	got := sel.perBatch[0]
	if len(got) != 3 {
		t.Fatalf("selected %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("topk-question = %v, want %v", got, want)
		}
	}
}

func TestCoveringSelectionCoversAllCoverable(t *testing.T) {
	// Questions in two groups; demos near each group. The stage-1 set
	// must cover all questions; stage-2 allocations must cover each batch.
	qVecs := vecsFrom(0, 0.01, 0.02, 5, 5.01, 5.02)
	dVecs := vecsFrom(0.005, 5.005, 100)
	pool := dummyPool(3)
	cfg := Config{BatchSize: 3, Selection: CoveringSelection, CoverPercentile: 0.3, Seed: 1}.applyDefaults()
	cfg.BatchSize = 3
	cfg.CoverPercentile = 0.3
	batches := Batches{{0, 1, 2}, {3, 4, 5}}
	sel := coveringSelection(cfg, batches, qVecs, dVecs, pool, windowGeometry(cfg, qVecs, false))
	if len(sel.labeled) != 2 {
		t.Fatalf("labeled = %v, want the two near demos", sel.labeled)
	}
	for _, di := range sel.labeled {
		if di == 2 {
			t.Error("irrelevant demo annotated")
		}
	}
	// Each batch needs only its local demo.
	if len(sel.perBatch[0]) != 1 || len(sel.perBatch[1]) != 1 {
		t.Errorf("per-batch allocations = %v", sel.perBatch)
	}
}

func TestCoveringCheaperThanTopKQuestion(t *testing.T) {
	// A cluster of questions coverable by one demo: covering labels 1,
	// topk-question labels up to one per question.
	qVecs := vecsFrom(0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07)
	dVecs := vecsFrom(0.035, 10, 11, 12, 13, 14, 15, 16)
	pool := dummyPool(len(dVecs))
	cfg := Config{BatchSize: 8, Selection: CoveringSelection, Seed: 1}.applyDefaults()
	cfg.CoverPercentile = 0.5
	batches := Batches{{0, 1, 2, 3, 4, 5, 6, 7}}
	cover := coveringSelection(cfg, batches, qVecs, dVecs, pool, windowGeometry(cfg, qVecs, false))
	topkq := topKQuestionSelection(cfg, batches, qVecs, dVecs)
	if len(cover.labeled) >= len(topkq.labeled) {
		// topk-question with k=1 will pick demo 0 for all questions here,
		// so force a comparison on per-batch token load instead.
		t.Logf("labeled: cover=%d topkq=%d", len(cover.labeled), len(topkq.labeled))
	}
	if len(cover.labeled) != 1 {
		t.Errorf("covering labeled %v, want exactly 1", cover.labeled)
	}
}

func TestCoverThresholdPercentile(t *testing.T) {
	cfg := Config{Seed: 1}.applyDefaults()
	cfg.CoverPercentile = 0.08
	qVecs := vecsFrom(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	tvalue := coverThreshold(cfg, qVecs)
	if tvalue <= 0 {
		t.Errorf("threshold = %v", tvalue)
	}
	// 8th percentile of distances in an evenly spaced line is small.
	if tvalue > 2 {
		t.Errorf("threshold = %v, implausibly large", tvalue)
	}
}

func TestCoverThresholdDegenerate(t *testing.T) {
	cfg := Config{Seed: 1}.applyDefaults()
	if tv := coverThreshold(cfg, nil); tv <= 0 {
		t.Errorf("empty threshold = %v", tv)
	}
	same := []feature.Vector{{1}, {1}, {1}}
	if tv := coverThreshold(cfg, same); tv <= 0 {
		t.Errorf("identical-points threshold = %v, must stay positive", tv)
	}
}

func TestNearestK(t *testing.T) {
	pool := vecsFrom(10, 0, 5)
	got := nearestK(feature.Euclidean, feature.Vector{1}, pool, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("nearestK = %v, want [1 2]", got)
	}
	if got := nearestK(feature.Euclidean, feature.Vector{1}, pool, 99); len(got) != 3 {
		t.Errorf("k clamp failed: %v", got)
	}
}

func TestQuestionK(t *testing.T) {
	cfg := Config{BatchSize: 8, NumDemos: 8}
	if cfg.questionK() != 1 {
		t.Errorf("questionK = %d, want 1", cfg.questionK())
	}
	cfg = Config{BatchSize: 4, NumDemos: 8}
	if cfg.questionK() != 2 {
		t.Errorf("questionK = %d, want 2", cfg.questionK())
	}
	cfg = Config{BatchSize: 8, NumDemos: 4}
	if cfg.questionK() != 1 {
		t.Errorf("questionK should clamp to 1: %d", cfg.questionK())
	}
}

// coverThresholdSorted is coverThreshold as it was written before the
// shared selection helper (append-built buffer, full sort, first
// positive element as the fallback), kept as the oracle. It has no
// clamp: p must be in [0, 1].
func coverThresholdSorted(cfg Config, qVecs []feature.Vector) float64 {
	sample := qVecs
	if cfg.DistanceSampleCap > 0 && len(sample) > cfg.DistanceSampleCap {
		rnd := rand.New(rand.NewSource(cfg.Seed + 2))
		perm := rnd.Perm(len(qVecs))
		sample = make([]feature.Vector, cfg.DistanceSampleCap)
		for i := range sample {
			sample[i] = qVecs[perm[i]]
		}
	}
	var ds []float64
	for i := 0; i < len(sample); i++ {
		for j := i + 1; j < len(sample); j++ {
			ds = append(ds, cfg.Distance(sample[i], sample[j]))
		}
	}
	if len(ds) == 0 {
		return 0.1
	}
	sort.Float64s(ds)
	t := ds[int(cfg.CoverPercentile*float64(len(ds)-1))]
	if t <= 0 {
		for _, d := range ds {
			if d > 0 {
				return d
			}
		}
		return 0.1
	}
	return t
}

func TestCoverThresholdMatchesSortedOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 30, 120} {
		for _, grid := range []int{1, 2, 40} {
			// grid 1: every vector identical (0.1 fallback); grid 2: most
			// distances zero (smallest-positive fallback at low p).
			qVecs := make([]feature.Vector, n)
			for i := range qVecs {
				qVecs[i] = feature.Vector{float64(rnd.Intn(grid)), float64(rnd.Intn(grid)) / 4}
			}
			for _, sampleCap := range []int{2, 25, 512} {
				for _, p := range []float64{0.001, 0.08, 0.5, 1} {
					for seed := int64(1); seed <= 2; seed++ {
						cfg := Config{Seed: seed, CoverPercentile: p, DistanceSampleCap: sampleCap}.applyDefaults()
						got, want := coverThreshold(cfg, qVecs), coverThresholdSorted(cfg, qVecs)
						if got != want {
							t.Fatalf("n=%d grid=%d cap=%d p=%v seed=%d: coverThreshold = %v, sorted oracle = %v",
								n, grid, sampleCap, p, seed, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCoverPercentileAboveOneClamps: WithCoverPercentile(1.5) used to
// index past the distance buffer ("index out of range [7] with length
// 6" on four questions). The percentile is clamped to [0, 1], so the
// run is the p = 1 run.
func TestCoverPercentileAboveOneClamps(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 4)
	resolve := func(p float64) *Result {
		t.Helper()
		f := New(newSimClient(questions, pool, 1),
			WithBatching(DiversityBatching), WithSelection(CoveringSelection),
			WithSeed(1), WithCoverPercentile(p))
		res, err := f.Resolve(context.Background(), questions, pool)
		if err != nil {
			t.Fatalf("CoverPercentile %v: %v", p, err)
		}
		return res
	}
	got, want := resolve(1.5), resolve(1)
	if !reflect.DeepEqual(got.Pred, want.Pred) {
		t.Errorf("predictions differ: p=1.5 %v, p=1 %v", got.Pred, want.Pred)
	}
	if got.DemosLabeled != want.DemosLabeled || got.PromptTokens != want.PromptTokens {
		t.Errorf("p=1.5 labeled %d demos / %d prompt tokens, p=1 %d / %d",
			got.DemosLabeled, got.PromptTokens, want.DemosLabeled, want.PromptTokens)
	}
	if got.Ledger.Total() != want.Ledger.Total() {
		t.Errorf("ledger total: p=1.5 %v, p=1 %v", got.Ledger.Total(), want.Ledger.Total())
	}
}

// TestNaNPercentilesDoNotPanic: WithCoverPercentile(math.NaN()) and
// WithClusterEpsPercentile(math.NaN()) pass applyDefaults (NaN <= 0 is
// false) and both clamps, and used to index the distance buffer with
// int(NaN) ("index out of range [-9223372036854775808]"). A NaN
// percentile reads as unset where the index is computed — the smallest
// distance — so the run is the one a vanishing percentile gives.
func TestNaNPercentilesDoNotPanic(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 24)
	resolve := func(opts ...Option) *Result {
		t.Helper()
		f := New(newSimClient(questions, pool, 1), append([]Option{
			WithBatching(DiversityBatching), WithSelection(CoveringSelection), WithSeed(1)}, opts...)...)
		res, err := f.Resolve(context.Background(), questions, pool)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for name, opt := range map[string]func(float64) Option{
		"CoverPercentile": WithCoverPercentile, "ClusterEpsPercentile": WithClusterEpsPercentile,
	} {
		got, want := resolve(opt(math.NaN())), resolve(opt(1e-300))
		if !reflect.DeepEqual(got.Pred, want.Pred) || got.DemosLabeled != want.DemosLabeled ||
			got.PromptTokens != want.PromptTokens || got.Ledger.Total() != want.Ledger.Total() {
			t.Errorf("%s NaN: %d demos / %d prompt tokens / $%v, at 1e-300: %d / %d / $%v", name,
				got.DemosLabeled, got.PromptTokens, got.Ledger.Total(),
				want.DemosLabeled, want.PromptTokens, want.Ledger.Total())
		}
	}
}
