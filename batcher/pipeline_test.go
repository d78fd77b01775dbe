package batcher

import (
	"context"
	"slices"
	"testing"

	"batcher/internal/llm"
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

// TestMinSharedDefaultSharedByEntryPoints: minShared <= 0 means the
// documented default of 2 on every facade entry point that blocks, so a
// cascade pre-filter sampled through BlockTablesStream trains on the
// candidates RunPipeline then matches.
func TestMinSharedDefaultSharedByEntryPoints(t *testing.T) {
	ds, err := LoadBenchmark("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := ds.TableA[:100], ds.TableB[:100]
	keys := func(pairs []Pair) []string {
		out := make([]string, len(pairs))
		for i, p := range pairs {
			out[i] = p.Key()
		}
		return out
	}
	want := keys(BlockTables(ta, tb, "beer_name", 2))
	if len(want) == 0 || len(want) == len(keys(BlockTables(ta, tb, "beer_name", 1))) {
		t.Fatalf("workload cannot tell MinShared 1 from 2 (%d candidates)", len(want))
	}
	var streamed []Pair
	for p, err := range BlockTablesStream(context.Background(), ta, tb, "beer_name", 0) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, p)
	}
	var piped []Pair
	_, err = RunPipeline(context.Background(), PipelineConfig{
		BlockAttr: "beer_name",
		Matcher:   []Option{WithSeed(1)},
		OnPair:    func(p Pair, _ Label) { piped = append(piped, p) },
	}, NewSimulatedClient(ds.Pairs, 1), ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]string{
		"BlockTables":       keys(BlockTables(ta, tb, "beer_name", 0)),
		"BlockTablesStream": keys(streamed),
		"RunPipeline":       keys(piped),
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s at minShared 0: %d candidates, want the MinShared-2 set of %d", name, len(got), len(want))
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

// TestClientWrappersConstruct: NewTieredClient, the one wrapper the
// facade offers beside NewClientStack and NewDiskCachedClient, routes
// each request by its tier.
func TestClientWrappersConstruct(t *testing.T) {
	cheap := &countingBackend{inner: NewSimulatedClient(nil, 1)}
	expensive := &countingBackend{inner: NewSimulatedClient(nil, 1)}
	tiered := NewTieredClient(cheap, expensive)
	for _, tier := range []llm.Tier{llm.TierDefault, llm.TierCheap, llm.TierExpensive} {
		req := Request{Model: GPT35Turbo0301, Prompt: "Question 1: a [SEP] b", Tier: tier}
		if _, err := tiered.Complete(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if c, e := cheap.calls.Load(), expensive.calls.Load(); c != 2 || e != 1 {
		t.Errorf("calls = %d cheap / %d expensive, want 2/1", c, e)
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
	unlabeled := append([]Pair(nil), ds.Pairs[:60]...)
	for i := range unlabeled {
		unlabeled[i].Truth = Unknown
	}
	labeled := BootstrapLabels(unlabeled)
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
