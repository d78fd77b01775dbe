package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"batcher/internal/cost"
	"batcher/internal/feature"
	"batcher/internal/llm"
)

// Pinned margin values on a hand-built 1-D geometry: the margin is
// (d2-d1)/(d1+d2) over the two nearest annotated demos, minimized over
// the batch's questions.
func TestVoteMarginsFixture(t *testing.T) {
	cfg := Config{Seed: 1}.applyDefaults() // Euclidean distance
	dVecs := []feature.Vector{{0}, {1}, {0.4}}
	qVecs := []feature.Vector{{0.1}, {0.5}, {0.2}, {0.45}}
	batches := Batches{{0}, {1}, {2, 3}}
	labeled := []int{0, 1} // demo 2 is unannotated and must not vote

	got := voteMargins(cfg, batches, qVecs, dVecs, labeled)
	// q0: d=(0.1, 0.9) -> 0.8; q1: d=(0.5, 0.5) -> 0;
	// q2: d=(0.2, 0.8) -> 0.6, q3: d=(0.45, 0.55) -> 0.1, batch min 0.1.
	want := []float64{0.8, 0, 0.1}
	if len(got) != len(want) {
		t.Fatalf("margins = %v, want %d entries", got, len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("batch %d margin = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVoteMarginsDegenerate(t *testing.T) {
	cfg := Config{Seed: 1}.applyDefaults()
	qVecs := []feature.Vector{{0.3}}
	batches := Batches{{0}}
	// Fewer than two annotated demos: no disagreement evidence, margin 1.
	if got := voteMargins(cfg, batches, qVecs, []feature.Vector{{0}}, []int{0}); got[0] != 1 {
		t.Errorf("single-demo margin = %v, want 1", got[0])
	}
	// Both annotated demos exactly on the question: zero distances, margin 1.
	dVecs := []feature.Vector{{0.3}, {0.3}}
	if got := voteMargins(cfg, batches, qVecs, dVecs, []int{0, 1}); got[0] != 1 {
		t.Errorf("zero-distance margin = %v, want 1", got[0])
	}
}

// Only a tiered run reads the vote-k margin, so only a tiered run pays
// for it: a single-model Prepare holds no margins, and a Prepare with
// CheapModel set holds one per batch, in [0,1], for every selection
// strategy — the margin is a property of the annotated geometry, not of
// vote-k selection.
func TestMarginsOnlyOnTieredRuns(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 24)
	for _, sel := range []SelectStrategy{CoveringSelection, FixedSelection, VoteKSelection} {
		single := Config{Batching: DiversityBatching, Selection: sel, Seed: 1}
		tiered := cascadeConfig(1)
		tiered.Selection = sel
		for name, cfg := range map[string]Config{"single-model": single, "tiered": tiered} {
			prep, err := NewFromConfig(llm.NewSimulated(nil, 1), cfg).Prepare(context.Background(), questions, pool)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.CheapModel == "" {
				if prep.margins != nil {
					t.Errorf("%s/%s: %d margins computed, want none", name, sel, len(prep.margins))
				}
				continue
			}
			if len(prep.margins) != len(prep.Batches()) {
				t.Fatalf("%s/%s: %d margins for %d batches", name, sel, len(prep.margins), len(prep.Batches()))
			}
			for bi, m := range prep.margins {
				if m < 0 || m > 1 {
					t.Errorf("%s/%s: batch %d margin %v outside [0,1]", name, sel, bi, m)
				}
			}
		}
	}
}

// A batch whose vote-k margin equals EscalateMargin exactly is not below
// it, so it goes to the cheap tier; only a batch strictly below skips
// it.
func TestEscalateMarginEqualGoesCheap(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 24)
	client := llm.NewTiered(newSimClient(questions, pool, 1), newSimClient(questions, pool, 1))
	cfg := cascadeConfig(1)
	prep, err := NewFromConfig(client, cfg).Prepare(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	cfg.EscalateMargin = slices.Max(prep.margins)
	prep, err = NewFromConfig(client, cfg).Prepare(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	below := 0
	err = prep.Run(context.Background(), func(br BatchResult) {
		want := cost.TierCheap
		if m := prep.margins[br.Index]; m < cfg.EscalateMargin {
			want = cost.TierExpensive
			below++
		}
		if br.Tier != want {
			t.Errorf("batch %d (margin %v, EscalateMargin %v) answered on tier %q, want %q",
				br.Index, prep.margins[br.Index], cfg.EscalateMargin, br.Tier, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if below == 0 {
		t.Error("every batch sits at the top margin: the strictly-below case went untested")
	}
}
