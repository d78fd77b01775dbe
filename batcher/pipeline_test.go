package batcher

import (
	"context"
	"testing"
)

func TestRunPipelinePublic(t *testing.T) {
	ds, err := LoadBenchmark("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitPairs(ds.Pairs)
	client := NewSimulatedClient(ds.Pairs, 1)
	rep, err := RunPipeline(context.Background(), PipelineConfig{
		BlockAttr:       "beer_name",
		MinSharedTokens: 2,
		Pool:            split.Train,
		Matcher:         []Option{WithSeed(1), WithParallelism(4)},
	}, client, ds.TableA[:100], ds.TableB[:100])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == 0 {
		t.Fatal("no candidates")
	}
	if rep.Result.Ledger.Total() <= 0 {
		t.Error("no cost recorded")
	}
}

func TestRunPipelineMinHash(t *testing.T) {
	ds, _ := LoadBenchmark("Beer", 2)
	client := NewSimulatedClient(ds.Pairs, 1)
	rep, err := RunPipeline(context.Background(), PipelineConfig{
		BlockAttr:  "beer_name",
		UseMinHash: true,
	}, client, ds.TableA[:60], ds.TableB[:60])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == 0 {
		t.Error("minhash produced no candidates")
	}
}

func TestRunPipelineStreamWindow(t *testing.T) {
	ds, err := LoadBenchmark("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitPairs(ds.Pairs)
	client := NewSimulatedClient(ds.Pairs, 1)
	var streamed int
	var lastProgress PipelineProgress
	rep, err := RunPipeline(context.Background(), PipelineConfig{
		BlockAttr:       "beer_name",
		MinSharedTokens: 2,
		Pool:            split.Train,
		Matcher:         []Option{WithSeed(1)},
		StreamWindow:    16,
		OnPair:          func(Pair, Label) { streamed++ },
		Progress:        func(p PipelineProgress) { lastProgress = p },
	}, client, ds.TableA[:100], ds.TableB[:100])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == 0 {
		t.Fatal("no candidates")
	}
	if rep.PeakBuffered > 16 {
		t.Errorf("PeakBuffered = %d, exceeds window 16", rep.PeakBuffered)
	}
	if streamed != rep.Candidates {
		t.Errorf("OnPair saw %d of %d candidates", streamed, rep.Candidates)
	}
	if !lastProgress.BlockingDone || lastProgress.Windows != rep.Windows {
		t.Errorf("terminal progress = %+v", lastProgress)
	}
}

// TestRunPipelineInFlight exercises the facade's pipelined mode: K
// windows in flight must reproduce the sequential streaming run's
// predictions and spend exactly.
func TestRunPipelineInFlight(t *testing.T) {
	ds, err := LoadBenchmark("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitPairs(ds.Pairs)
	newCfg := func(inFlight int) PipelineConfig {
		return PipelineConfig{
			BlockAttr:       "beer_name",
			MinSharedTokens: 2,
			Pool:            split.Train,
			Matcher:         []Option{WithSeed(1)},
			StreamWindow:    16,
			InFlightWindows: inFlight,
		}
	}
	base, err := RunPipeline(context.Background(), newCfg(1),
		NewSimulatedClient(ds.Pairs, 1), ds.TableA[:100], ds.TableB[:100])
	if err != nil {
		t.Fatal(err)
	}
	if base.Windows < 2 {
		t.Fatalf("want a multi-window run, got %d windows", base.Windows)
	}
	got, err := RunPipeline(context.Background(), newCfg(4),
		NewSimulatedClient(ds.Pairs, 1), ds.TableA[:100], ds.TableB[:100])
	if err != nil {
		t.Fatal(err)
	}
	if got.Candidates != base.Candidates || got.Windows != base.Windows {
		t.Errorf("candidates/windows = %d/%d, want %d/%d",
			got.Candidates, got.Windows, base.Candidates, base.Windows)
	}
	if len(got.Result.Pred) != len(base.Result.Pred) {
		t.Fatalf("prediction counts differ: %d vs %d", len(got.Result.Pred), len(base.Result.Pred))
	}
	for i := range base.Result.Pred {
		if got.Result.Pred[i] != base.Result.Pred[i] {
			t.Fatalf("prediction %d differs", i)
		}
	}
	if got.Result.Ledger.Total() != base.Result.Ledger.Total() {
		t.Errorf("ledger total = %v, want %v", got.Result.Ledger.Total(), base.Result.Ledger.Total())
	}
}

func TestBlockTablesStreamPublic(t *testing.T) {
	ds, _ := LoadBenchmark("Beer", 1)
	ta, tb := ds.TableA[:80], ds.TableB[:80]
	want := BlockTables(ta, tb, "beer_name", 2)
	var got []Pair
	for p, err := range BlockTablesStream(context.Background(), ta, tb, "beer_name", 2) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d pairs, BlockTables %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("pair %d = %s, want %s", i, got[i].Key(), want[i].Key())
		}
	}
}

func TestRunPipelineCandidateGuard(t *testing.T) {
	ds, _ := LoadBenchmark("Beer", 1)
	client := NewSimulatedClient(nil, 1)
	if _, err := RunPipeline(context.Background(), PipelineConfig{MaxCandidates: 1}, client, ds.TableA[:50], ds.TableB[:50]); err == nil {
		t.Error("candidate guard not applied")
	}
}

func TestCachedClientPublic(t *testing.T) {
	ds, _ := LoadBenchmark("Beer", 1)
	split := SplitPairs(ds.Pairs)
	qs := split.Test[:16]
	inner := NewSimulatedClient(ds.Pairs, 1)
	cached := NewCachedClient(inner, 100)
	m1 := New(cached, WithSeed(1))
	r1, err := m1.Match(context.Background(), qs, split.Train)
	if err != nil {
		t.Fatal(err)
	}
	// Second identical run: all prompts served from cache, zero API cost.
	m2 := New(cached, WithSeed(1))
	r2, err := m2.Match(context.Background(), qs, split.Train)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ledger.API() <= 0 {
		t.Error("first run should bill")
	}
	if r2.Ledger.API() != 0 {
		t.Errorf("cached rerun billed $%v", r2.Ledger.API())
	}
	for i := range r1.Pred {
		if r1.Pred[i] != r2.Pred[i] {
			t.Fatal("cached rerun changed predictions")
		}
	}
}

func TestClientWrappersConstruct(t *testing.T) {
	inner := NewSimulatedClient(nil, 1)
	if NewRateLimitedClient(inner, 60) == nil {
		t.Error("rate limited nil")
	}
}

func TestRunPipelineCascade(t *testing.T) {
	ds, err := LoadBenchmark("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitPairs(ds.Pairs)
	pf, err := TrainCascadePrefilter(split.Train, CascadeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTieredClient(NewSimulatedClient(ds.Pairs, 1), NewSimulatedClient(ds.Pairs, 2))
	rep, err := RunPipeline(context.Background(), PipelineConfig{
		BlockAttr:       "beer_name",
		MinSharedTokens: 2,
		Pool:            split.Train,
		Prefilter:       pf,
		Matcher: []Option{
			WithSeed(1),
			WithModel(GPT4),
			WithCheapModel(GPT35Turbo0301),
		},
	}, tiered, ds.TableA[:100], ds.TableB[:100])
	if err != nil {
		t.Fatal(err)
	}
	if rep.AutoResolved == 0 {
		t.Error("pre-filter auto-resolved nothing")
	}
	if rep.AutoResolved >= rep.Candidates {
		t.Errorf("auto-resolved %d of %d candidates; the ambiguous band is empty", rep.AutoResolved, rep.Candidates)
	}
	tiers := rep.Result.Ledger.TierBreakdown()
	if len(tiers) == 0 {
		t.Fatal("cascade run recorded no tier buckets")
	}
	var tierUSD float64
	for _, b := range tiers {
		tierUSD += b.Dollars
	}
	if api := rep.Result.Ledger.API(); tierUSD != api {
		t.Errorf("tier buckets sum to $%v, ledger api $%v", tierUSD, api)
	}
}

func TestBootstrapLabelsPublic(t *testing.T) {
	ds, err := LoadBenchmark("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	labeled := BootstrapLabels(WithoutLabels(ds.Pairs[:60]))
	if len(labeled) != 60 {
		t.Fatalf("got %d pairs, want 60", len(labeled))
	}
	var match, non int
	for _, p := range labeled {
		switch p.Truth {
		case Match:
			match++
		case NonMatch:
			non++
		default:
			t.Fatalf("pair %s still unlabeled", p.Key())
		}
	}
	if match == 0 || non == 0 {
		t.Errorf("bootstrap labels one-sided: %d match / %d non-match", match, non)
	}
	if _, err := TrainCascadePrefilter(labeled, CascadeConfig{}); err != nil {
		t.Errorf("training on bootstrap labels: %v", err)
	}
}
