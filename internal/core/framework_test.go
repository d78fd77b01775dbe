package core

import (
	"context"
	"strings"
	"testing"

	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/metrics"
)

// testWorkload returns a small benchmark slice: questions from the test
// split, pool from the train split.
func testWorkload(t *testing.T, name string, nQuestions int) (questions, pool []entity.Pair) {
	t.Helper()
	d, err := datagen.GenerateByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	split := entity.SplitPairs(d.Pairs)
	qs := split.Test
	if len(qs) > nQuestions {
		qs = qs[:nQuestions]
	}
	return qs, split.Train
}

func newSimClient(questions, pool []entity.Pair, seed int64) llm.Client {
	all := append(append([]entity.Pair(nil), questions...), pool...)
	return llm.NewSimulated(llm.BuildOracle(all), seed)
}

// plannedBatches returns the batches f plans for questions over pool.
// Prepare is deterministic and makes no LLM call, so this is the plan
// Resolve runs.
func plannedBatches(t *testing.T, f *Framework, questions, pool []entity.Pair) Batches {
	t.Helper()
	p, err := f.Prepare(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	return p.Batches()
}

func TestResolveEndToEnd(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 40)
	client := newSimClient(questions, pool, 1)
	f := NewFromConfig(client, Config{Batching: DiversityBatching, Selection: CoveringSelection, Seed: 1})
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pred) != len(questions) {
		t.Fatalf("predictions = %d, want %d", len(res.Pred), len(questions))
	}
	var c metrics.Confusion
	c.AddAll(entity.Labels(questions), res.Pred)
	if c.F1() < 60 {
		t.Errorf("end-to-end F1 = %.1f, implausibly low for Beer", c.F1())
	}
	if res.Ledger.API() <= 0 {
		t.Error("no API cost recorded")
	}
	if res.Ledger.LabeledPairs() <= 0 {
		t.Errorf("labeling accounting: %d pairs labeled", res.Ledger.LabeledPairs())
	}
}

func TestResolveAllDesignPoints(t *testing.T) {
	questions, pool := testWorkload(t, "IA", 32)
	for _, bs := range BatchStrategies() {
		for _, ss := range SelectStrategies() {
			client := newSimClient(questions, pool, 2)
			f := NewFromConfig(client, Config{Batching: bs, Selection: ss, Seed: 2})
			res, err := f.Resolve(context.Background(), questions, pool)
			if err != nil {
				t.Fatalf("%v/%v: %v", bs, ss, err)
			}
			answered := 0
			for _, p := range res.Pred {
				if p != entity.Unknown {
					answered++
				}
			}
			if answered < len(questions)*9/10 {
				t.Errorf("%v/%v: only %d/%d questions answered", bs, ss, answered, len(questions))
			}
		}
	}
}

func TestResolveEmptyQuestions(t *testing.T) {
	f := NewFromConfig(llm.NewSimulated(nil, 1), Config{})
	res, err := f.Resolve(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pred) != 0 {
		t.Errorf("Pred = %v", res.Pred)
	}
}

func TestResolveStandardPrompting(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 12)
	client := newSimClient(questions, pool, 3)
	f := NewFromConfig(client, Config{BatchSize: 1, Selection: FixedSelection, Seed: 3})
	f.cfg.BatchSize = 1
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Calls() != len(questions) {
		t.Errorf("standard prompting calls = %d, want %d", res.Ledger.Calls(), len(questions))
	}
}

func TestBatchPromptingCheaperThanStandard(t *testing.T) {
	questions, pool := testWorkload(t, "IA", 48)
	std := NewFromConfig(newSimClient(questions, pool, 4), Config{Selection: FixedSelection, Seed: 4})
	std.cfg.BatchSize = 1
	batch := NewFromConfig(newSimClient(questions, pool, 4), Config{Selection: FixedSelection, Seed: 4})
	resStd, err := std.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	resBatch, err := batch.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	ratio := resStd.Ledger.API() / resBatch.Ledger.API()
	if ratio < 3 {
		t.Errorf("API cost ratio standard/batch = %.2f, want >= 3 (paper: 4x-7x)", ratio)
	}
}

func TestCoveringLabelsFewerThanTopKQuestion(t *testing.T) {
	questions, pool := testWorkload(t, "IA", 64)
	cover := NewFromConfig(newSimClient(questions, pool, 5), Config{Batching: DiversityBatching, Selection: CoveringSelection, Seed: 5})
	topkq := NewFromConfig(newSimClient(questions, pool, 5), Config{Batching: DiversityBatching, Selection: TopKQuestion, Seed: 5})
	resC, err := cover.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	resT, err := topkq.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Ledger.LabeledPairs() >= resT.Ledger.LabeledPairs() {
		t.Errorf("covering labeled %d, topk-question %d: covering should be cheaper",
			resC.Ledger.LabeledPairs(), resT.Ledger.LabeledPairs())
	}
}

// overflowClient forces one context-length error then delegates.
type overflowClient struct {
	inner  llm.Client
	failed bool
}

func (o *overflowClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if !o.failed {
		o.failed = true
		return llm.Response{}, llm.ErrContextLength
	}
	return o.inner.Complete(ctx, req)
}

func TestResolveTrimsOnContextOverflow(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 8)
	inner := newSimClient(questions, pool, 6)
	client := &overflowClient{inner: inner}
	f := NewFromConfig(client, Config{Selection: FixedSelection, Seed: 6})
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrimmedDemos == 0 {
		t.Error("expected at least one trimmed demo after forced overflow")
	}
}

func TestAnnotateDefaultsUnknownToNonMatch(t *testing.T) {
	f := NewFromConfig(llm.NewSimulated(nil, 1), Config{})
	pool := []entity.Pair{{
		A:     entity.NewRecord("a", []string{"t"}, []string{"x"}),
		B:     entity.NewRecord("b", []string{"t"}, []string{"y"}),
		Truth: entity.Unknown,
	}}
	demos := f.annotate(pool, []int{0})
	if demos[0].Label != entity.NonMatch {
		t.Errorf("unknown pool label became %v", demos[0].Label)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.applyDefaults()
	if cfg.BatchSize != 8 || cfg.NumDemos != 8 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Model != llm.DefaultModel {
		t.Errorf("default model = %q", cfg.Model)
	}
	if cfg.CoverPercentile != 0.08 {
		t.Errorf("default cover percentile = %v, want paper's 8th", cfg.CoverPercentile)
	}
	if !strings.Contains(cfg.TaskDescription, "entity") {
		t.Errorf("task description = %q", cfg.TaskDescription)
	}
}

func TestFrameworkConfigAccessor(t *testing.T) {
	f := NewFromConfig(llm.NewSimulated(nil, 1), Config{BatchSize: 4})
	if f.Config().BatchSize != 4 {
		t.Errorf("Config() = %+v", f.Config())
	}
}
