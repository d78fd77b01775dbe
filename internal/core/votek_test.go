package core

import (
	"context"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/metrics"
)

func TestVoteKPicksRepresentatives(t *testing.T) {
	// Two dense regions plus one outlier: with budget 2, vote-k must pick
	// one item from each dense region and skip the outlier.
	var dVecs []feature.Vector
	for i := 0; i < 10; i++ {
		dVecs = append(dVecs, feature.Vector{float64(i) * 0.01}) // region A
	}
	for i := 0; i < 10; i++ {
		dVecs = append(dVecs, feature.Vector{5 + float64(i)*0.01}) // region B
	}
	dVecs = append(dVecs, feature.Vector{100}) // outlier
	cfg := Config{Seed: 1}.applyDefaults()
	picked := voteK(cfg, dVecs, 2)
	if len(picked) != 2 {
		t.Fatalf("picked = %v", picked)
	}
	regions := map[int]bool{}
	for _, i := range picked {
		switch {
		case i < 10:
			regions[0] = true
		case i < 20:
			regions[1] = true
		default:
			t.Fatalf("outlier %d selected", i)
		}
	}
	if len(regions) != 2 {
		t.Errorf("picks not diverse: %v", picked)
	}
}

func TestVoteKBudgetClamp(t *testing.T) {
	cfg := Config{Seed: 1}.applyDefaults()
	dVecs := []feature.Vector{{0}, {1}}
	if got := voteK(cfg, dVecs, 10); len(got) != 2 {
		t.Errorf("picked %v, want whole pool", got)
	}
	if got := voteK(cfg, nil, 3); got != nil {
		t.Errorf("empty pool picked %v", got)
	}
}

func TestVoteKSelectionEndToEnd(t *testing.T) {
	questions, pool := testWorkload(t, "IA", 48)
	client := newSimClient(questions, pool, 4)
	f := NewFromConfig(client, Config{Batching: DiversityBatching, Selection: VoteKSelection, Seed: 4})
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	var c metrics.Confusion
	c.AddAll(entity.Labels(questions), res.Pred)
	if c.F1() < 55 {
		t.Errorf("vote-k F1 = %.1f, implausibly low", c.F1())
	}
	// Budget: 3x NumDemos annotated at most.
	if res.Ledger.LabeledPairs() > 3*f.Config().NumDemos {
		t.Errorf("labeled %d, budget is %d", res.Ledger.LabeledPairs(), 3*f.Config().NumDemos)
	}
}

func TestVoteKStrategyString(t *testing.T) {
	if VoteKSelection.String() != "vote-k" {
		t.Errorf("String = %q", VoteKSelection.String())
	}
}

func TestVoteKNotInPaperGrid(t *testing.T) {
	// The paper's Table I design space stays intact: vote-k is an
	// extension and must not appear in the canonical strategy list.
	for _, s := range SelectStrategies() {
		if s == VoteKSelection {
			t.Error("VoteKSelection leaked into the paper's design grid")
		}
	}
}
