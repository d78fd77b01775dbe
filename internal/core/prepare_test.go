package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
)

// TestPrepareAliasedPoolMatchesClonedPool: a self-pooled window passes
// one slice as questions and pool, and Prepare then extracts it once.
// The plan must be the one a separately extracted copy of the pool
// yields: same batches, per-batch demonstrations, annotated set and
// margins.
func TestPrepareAliasedPoolMatchesClonedPool(t *testing.T) {
	window, _ := testWorkload(t, "Beer", 96)
	for _, ex := range []feature.Extractor{feature.NewLR(), feature.NewJAC()} {
		for _, sel := range []SelectStrategy{CoveringSelection, TopKQuestion, VoteKSelection} {
			f := NewFromConfig(llm.NewSimulated(nil, 1), Config{
				Batching: DiversityBatching, Selection: sel, Extractor: ex, Seed: 1,
			})
			aliased, err := f.Prepare(context.Background(), window, window)
			if err != nil {
				t.Fatal(err)
			}
			cloned, err := f.Prepare(context.Background(), window, append([]entity.Pair(nil), window...))
			if err != nil {
				t.Fatal(err)
			}
			name := ex.Name() + "/" + sel.String()
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
