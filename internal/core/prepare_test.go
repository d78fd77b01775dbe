package core

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
)

// TestPrepareAliasedPoolMatchesClonedPool: a self-pooled window passes
// one slice as questions and pool, and Prepare then extracts it once and
// reads clustering and covering off one shared distance sweep. The plan
// must be the one a separately extracted copy of the pool yields through
// the rectangular cover build: same batches, per-batch demonstrations,
// annotated set and margins — with the calibration unsampled (one shared
// distance buffer) and sampled (DistanceSampleCap below n: two seeded
// samples), under both clustering strategies.
func TestPrepareAliasedPoolMatchesClonedPool(t *testing.T) {
	window, _ := testWorkload(t, "Beer", 96)
	type variant struct {
		ex        feature.Extractor
		batching  BatchStrategy
		sel       SelectStrategy
		sampleCap int
	}
	var variants []variant
	for _, ex := range []feature.Extractor{feature.NewLR(), feature.NewJAC()} {
		for _, sel := range []SelectStrategy{CoveringSelection, TopKQuestion, VoteKSelection} {
			variants = append(variants, variant{ex, DiversityBatching, sel, 0})
		}
		variants = append(variants,
			variant{ex, DiversityBatching, CoveringSelection, 40},
			variant{ex, SimilarityBatching, CoveringSelection, 0},
			variant{ex, SimilarityBatching, CoveringSelection, 40},
			variant{ex, RandomBatching, CoveringSelection, 0})
	}
	for _, v := range variants {
		f := NewFromConfig(llm.NewSimulated(nil, 1), Config{
			Batching: v.batching, Selection: v.sel, Extractor: v.ex, Seed: 1, DistanceSampleCap: v.sampleCap,
		})
		aliased, err := f.Prepare(context.Background(), window, window)
		if err != nil {
			t.Fatal(err)
		}
		cloned, err := f.Prepare(context.Background(), window, append([]entity.Pair(nil), window...))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/%s/%s/cap=%d", v.ex.Name(), v.batching, v.sel, v.sampleCap)
		if len(aliased.batches) == 0 || len(aliased.sel.labeled) == 0 {
			t.Fatalf("%s: empty plan (%d batches, %d labeled)", name, len(aliased.batches), len(aliased.sel.labeled))
		}
		if !reflect.DeepEqual(aliased.batches, cloned.batches) {
			t.Errorf("%s: batches differ", name)
		}
		if !reflect.DeepEqual(aliased.sel.perBatch, cloned.sel.perBatch) {
			t.Errorf("%s: per-batch demonstrations differ", name)
		}
		if !reflect.DeepEqual(aliased.sel.labeled, cloned.sel.labeled) {
			t.Errorf("%s: labeled set differs: %v vs %v", name, aliased.sel.labeled, cloned.sel.labeled)
		}
		if !reflect.DeepEqual(aliased.sel.margins, cloned.sel.margins) {
			t.Errorf("%s: margins differ", name)
		}
	}
}

// TestPrepareSelfPooledDistanceBudget pins what a self-pooled diversity +
// covering Prepare may spend on Config.Distance: one call per unordered
// pair of the window (diagonal included) for clustering and covering
// together, the two percentile calibrations over m = min(n,
// DistanceSampleCap) points, and the vote margins' |labeled| calls per
// question. Stage-2 batch covering reads bits.
func TestPrepareSelfPooledDistanceBudget(t *testing.T) {
	for _, n := range []int{512, 1500} {
		window, _ := testWorkload(t, "WA", n)
		if len(window) != n {
			t.Fatalf("workload has %d pairs, need %d", len(window), n)
		}
		var calls atomic.Int64
		cfg := Config{
			Batching: DiversityBatching, Selection: CoveringSelection, Seed: 1,
			Distance: func(a, b feature.Vector) float64 { calls.Add(1); return feature.Euclidean(a, b) },
		}
		f := NewFromConfig(llm.NewSimulated(nil, 1), cfg)
		prep, err := f.Prepare(context.Background(), window, window)
		if err != nil {
			t.Fatal(err)
		}
		selfPooled := calls.Load()
		m := min(n, f.Config().DistanceSampleCap)
		sweep, labeled := n*(n+1)/2, len(prep.LabeledPool())
		if budget := sweep + 2*(m*(m-1)/2) + labeled*n; selfPooled > int64(budget) || selfPooled < int64(sweep) {
			t.Errorf("n=%d: %d Distance calls, want between the sweep's %d and %d (%d labeled)",
				n, selfPooled, sweep, budget, labeled)
		}
		// The rectangular path pays for the cover relation on its own,
		// and again per batch.
		calls.Store(0)
		if _, err := f.Prepare(context.Background(), window, append([]entity.Pair(nil), window...)); err != nil {
			t.Fatal(err)
		}
		if cloned := calls.Load(); cloned < selfPooled+int64(n*n) {
			t.Errorf("n=%d: cloned pool made %d Distance calls, self-pooled %d: expected n^2 = %d more",
				n, cloned, selfPooled, n*n)
		}
	}
}

// countingExtractor counts Extract calls on the string path.
type countingExtractor struct {
	feature.Extractor
	calls atomic.Int64
}

func (c *countingExtractor) Extract(p entity.Pair) feature.Vector {
	c.calls.Add(1)
	return c.Extractor.Extract(p)
}

func TestPrepareExtractsSelfPooledWindowOnce(t *testing.T) {
	window, _ := testWorkload(t, "Beer", 64)
	for _, tc := range []struct {
		name string
		pool []entity.Pair
		want int64
	}{
		{"aliased", window, int64(len(window))},
		{"cloned", append([]entity.Pair(nil), window...), 2 * int64(len(window))},
		{"prefix", window[:len(window)/2], int64(len(window) + len(window)/2)},
	} {
		ex := &countingExtractor{Extractor: feature.NewLR()}
		f := NewFromConfig(llm.NewSimulated(nil, 1), Config{Selection: CoveringSelection, Extractor: ex, Seed: 1})
		if _, err := f.Prepare(context.Background(), window, tc.pool); err != nil {
			t.Fatal(err)
		}
		if got := ex.calls.Load(); got != tc.want {
			t.Errorf("%s pool: %d Extract calls, want %d", tc.name, got, tc.want)
		}
	}
}
