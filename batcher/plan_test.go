package batcher

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// countingClient counts the calls that reach its inner client.
type countingClient struct {
	inner Client
	calls atomic.Int64
}

func (c *countingClient) Complete(ctx context.Context, req Request) (Response, error) {
	c.calls.Add(1)
	return c.inner.Complete(ctx, req)
}

// planWorkload is a dataset's test split, capped, with its training
// split as the demonstration pool.
func planWorkload(t *testing.T, name string) (questions, pool []Pair) {
	t.Helper()
	d, err := LoadBenchmark(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := SplitPairs(d.Pairs)
	questions = s.Test
	if len(questions) > 160 {
		questions = questions[:160]
	}
	return questions, s.Train
}

// Plan is the run without the model: on a single-tier run its labels,
// calls, input tokens and trimmed demonstrations equal a simulated
// Match's, its API dollars are the run's less the output tokens, and
// the Matcher's own client sees no call while it plans.
func TestPlanEqualsRun(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"topk-question", []Option{WithSelection(TopKQuestion)}},
		{"gpt-4", []Option{WithModel(GPT4)}},
		{"parallelism-4", []Option{WithParallelism(4)}},
		{"batch-48-demos-24", []Option{WithBatchSize(48), WithNumDemos(24), WithSelection(TopKBatch)}},
	}
	trimmed := 0
	for _, ds := range []string{"IA", "Beer", "FZ", "AB", "DS"} {
		questions, pool := planWorkload(t, ds)
		for _, cfg := range configs {
			client := &countingClient{inner: NewSimulatedClient(append(append([]Pair(nil), questions...), pool...), 1)}
			m := New(client, append([]Option{WithSeed(1)}, cfg.opts...)...)
			plan, err := m.Plan(context.Background(), questions, pool)
			if err != nil {
				t.Fatalf("%s/%s: plan: %v", ds, cfg.name, err)
			}
			if n := client.calls.Load(); n != 0 {
				t.Fatalf("%s/%s: Plan made %d calls on the Matcher's client", ds, cfg.name, n)
			}
			res, err := m.Match(context.Background(), questions, pool)
			if err != nil {
				t.Fatalf("%s/%s: run: %v", ds, cfg.name, err)
			}
			p, r := &plan.Ledger, &res.Ledger
			if p.LabeledPairs() != r.LabeledPairs() || p.Calls() != r.Calls() ||
				p.InputTokens() != r.InputTokens() || plan.TrimmedDemos != res.TrimmedDemos {
				t.Errorf("%s/%s: plan %d labels, %d calls, %d in, %d trimmed; run %d, %d, %d, %d",
					ds, cfg.name, p.LabeledPairs(), p.Calls(), p.InputTokens(), plan.TrimmedDemos,
					r.LabeledPairs(), r.Calls(), r.InputTokens(), res.TrimmedDemos)
			}
			if p.OutputTokens() != 0 {
				t.Errorf("%s/%s: plan guessed %d output tokens", ds, cfg.name, p.OutputTokens())
			}
			if p.API() > r.API() {
				t.Errorf("%s/%s: plan api $%v above the run's $%v", ds, cfg.name, p.API(), r.API())
			}
			trimmed += plan.TrimmedDemos
		}
	}
	if trimmed == 0 {
		t.Error("no configuration trimmed a demonstration: the context-window rule went untested")
	}
}

// On a tiered run an empty cheap answer reads as Unknown, so the plan
// escalates every cheap batch: its calls and input tokens bound the
// run's from above.
func TestPlanBoundsTieredRun(t *testing.T) {
	for _, ds := range []string{"IA", "AB"} {
		questions, pool := planWorkload(t, ds)
		m := New(NewSimulatedClient(append(append([]Pair(nil), questions...), pool...), 1),
			WithSeed(1), WithModel(GPT4), WithCheapModel(GPT35Turbo0301))
		plan, err := m.Plan(context.Background(), questions, pool)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Match(context.Background(), questions, pool)
		if err != nil {
			t.Fatal(err)
		}
		p, r := &plan.Ledger, &res.Ledger
		if p.Calls() < r.Calls() || p.InputTokens() < r.InputTokens() {
			t.Errorf("%s: plan %d calls, %d in; run %d, %d", ds, p.Calls(), p.InputTokens(), r.Calls(), r.InputTokens())
		}
		if p.LabeledPairs() != r.LabeledPairs() {
			t.Errorf("%s: plan %d labels, run %d", ds, p.LabeledPairs(), r.LabeledPairs())
		}
	}
}

func TestPlanUnknownModel(t *testing.T) {
	questions, pool := planWorkload(t, "Beer")
	m := New(NewSimulatedClient(nil, 1), WithModel("nope"))
	if _, err := m.Plan(context.Background(), questions, pool); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("err = %v, want ErrUnknownModel", err)
	}
}

// No questions, no calls: the plan charges only the demonstrations it
// labels, which is none.
func TestPlanEmptyQuestions(t *testing.T) {
	_, pool := planWorkload(t, "Beer")
	plan, err := New(NewSimulatedClient(nil, 1), WithModel(GPT4)).Plan(context.Background(), nil, pool)
	if err != nil {
		t.Fatal(err)
	}
	if l := &plan.Ledger; l.Calls() != 0 || l.InputTokens() != 0 || l.LabeledPairs() != 0 || l.Total() != 0 {
		t.Errorf("empty plan = %v", l)
	}
}
