package core

import (
	"context"
	"reflect"
	"testing"

	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
)

// TestResolveWindowPure pins the property shard partitioning is built
// on: resolving one window of candidates is a pure function of (config,
// window, pool) — independent of which windows were resolved before it
// on the same framework, and of how many. Every RNG consumer re-seeds
// per resolve (batching, selection, vote-k) and the simulated client
// seeds per prompt, so a shard that skips the windows it does not own
// still resolves its own windows exactly as the full run would. If this
// test starts failing, shard-merge equivalence is broken at the root.
func TestResolveWindowPure(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	windows := [][]entity.Pair{
		d.Pairs[0:16],
		d.Pairs[16:32],
		d.Pairs[32:48],
	}
	newF := func() *Framework {
		return NewFromConfig(llm.NewSimulated(llm.BuildOracle(d.Pairs), 1), Config{BatchSize: 4, Seed: 1})
	}
	resolve := func(f *Framework, win []entity.Pair) *Result {
		t.Helper()
		res, err := f.Resolve(context.Background(), win, win)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(tag string, got, want *Result) {
		t.Helper()
		if !reflect.DeepEqual(got.Pred, want.Pred) {
			t.Errorf("%s: predictions differ: %v vs %v", tag, got.Pred, want.Pred)
		}
		if got.Ledger.API() != want.Ledger.API() || got.Ledger.Calls() != want.Ledger.Calls() {
			t.Errorf("%s: ledger differs: $%v/%d calls vs $%v/%d calls", tag,
				got.Ledger.API(), got.Ledger.Calls(), want.Ledger.API(), want.Ledger.Calls())
		}
		if got.PromptTokens != want.PromptTokens || got.Ledger.LabeledPairs() != want.Ledger.LabeledPairs() {
			t.Errorf("%s: tokens/labels differ: %d/%d vs %d/%d", tag,
				got.PromptTokens, got.Ledger.LabeledPairs(), want.PromptTokens, want.Ledger.LabeledPairs())
		}
	}

	// Baseline: each window resolved alone on a fresh framework.
	alone := make([]*Result, len(windows))
	for i, win := range windows {
		alone[i] = resolve(newF(), win)
	}
	// The full-stream shape: all windows in order on one framework.
	f := newF()
	for i, win := range windows {
		same("sequential", resolve(f, win), alone[i])
	}
	// The shard shape: window 2 resolved after skipping 0 and 1.
	same("skipping", resolve(newF(), windows[2]), alone[2])
	// Re-resolution on a used framework (a crash-resume re-run).
	same("repeat", resolve(f, windows[1]), alone[1])
}
