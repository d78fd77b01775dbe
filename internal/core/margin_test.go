package core

import (
	"context"
	"math"
	"testing"

	"batcher/internal/feature"
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

// The margin must surface on every stream delta and on the folded
// Result, for all selection strategies — it is the cascade's routing
// signal even when vote-k selection is not in use.
func TestVoteMarginSurfacedOnStream(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 24)
	client := newSimClient(questions, pool, 1)
	f := NewFromConfig(client, Config{Batching: DiversityBatching, Selection: CoveringSelection, Seed: 1})
	prep, err := f.Prepare(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	stream := prep.Start(context.Background())
	res := stream.NewResult()
	for br := range stream.All() {
		if br.VoteMargin < 0 || br.VoteMargin > 1 {
			t.Errorf("batch %d margin %v outside [0,1]", br.Index, br.VoteMargin)
		}
		res.Apply(br)
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.BatchMargins) != len(res.Batches) {
		t.Fatalf("BatchMargins has %d entries for %d batches", len(res.BatchMargins), len(res.Batches))
	}
}
