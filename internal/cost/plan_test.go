package cost_test

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"batcher/batcher"
	"batcher/internal/cost"
	"batcher/internal/llm"
	"batcher/internal/tokens"
)

// A run's price before it runs is batcher.Matcher.Plan: the engine run
// against a client that answers nothing. These tests hold that price to
// the cost model: one call per batch, input tokens of the prompts the
// engine builds, no output tokens, dollars from the model's Pricing and
// LabelPerPair, and the saving batching buys.

// planQuestions is Beer's test split, capped at n, with its training
// split as the demonstration pool.
func planQuestions(t *testing.T, n int) (questions, pool []batcher.Pair) {
	t.Helper()
	d, err := batcher.LoadBenchmark("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := batcher.SplitPairs(d.Pairs)
	if len(s.Test) < n {
		t.Fatalf("Beer has %d test pairs, want %d", len(s.Test), n)
	}
	return s.Test[:n], s.Train
}

func planResult(t *testing.T, questions, pool []batcher.Pair, opts ...batcher.Option) *batcher.Result {
	t.Helper()
	m := batcher.New(batcher.NewSimulatedClient(nil, 1), append([]batcher.Option{batcher.WithSeed(1)}, opts...)...)
	res, err := m.Plan(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func plan(t *testing.T, questions, pool []batcher.Pair, opts ...batcher.Option) *cost.Ledger {
	t.Helper()
	return &planResult(t, questions, pool, opts...).Ledger
}

// promptRecorder counts the prompts that reach its inner client and
// their tokens.
type promptRecorder struct {
	inner   batcher.Client
	mu      sync.Mutex
	prompts int
	tokens  int
}

func (r *promptRecorder) Complete(ctx context.Context, req batcher.Request) (batcher.Response, error) {
	resp, err := r.inner.Complete(ctx, req)
	if err == nil {
		r.mu.Lock()
		r.prompts++
		r.tokens += tokens.Count(req.Prompt)
		r.mu.Unlock()
	}
	return resp, err
}

// One call per batch: ceil(questions / batch size), and one per
// question under standard prompting (batch size 1).
func TestPlanPrompts(t *testing.T) {
	cases := []struct {
		name      string
		questions int
		batchSize int
		want      int
	}{
		{"exact division", 40, 8, 5},
		{"remainder is one more call", 41, 8, 6},
		{"standard prompting", 41, 1, 41},
		{"batch larger than the campaign", 5, 8, 1},
	}
	for _, c := range cases {
		questions, pool := planQuestions(t, c.questions)
		if got := plan(t, questions, pool, batcher.WithBatchSize(c.batchSize)).Calls(); got != c.want {
			t.Errorf("%s: %d questions at batch %d: %d calls, want %d", c.name, c.questions, c.batchSize, got, c.want)
		}
	}
}

// A plan bills input tokens only. On a tiered plan every cheap batch
// escalates, so the expensive tier's bucket is the single-tier plan's
// ledger and the buckets add up to the whole.
func TestPlanTokenArithmetic(t *testing.T) {
	questions, pool := planQuestions(t, 80)
	single := plan(t, questions, pool, batcher.WithModel(batcher.GPT4))
	tiered := plan(t, questions, pool, batcher.WithModel(batcher.GPT4), batcher.WithCheapModel(batcher.GPT35Turbo0301))
	for name, l := range map[string]*cost.Ledger{"single": single, "tiered": tiered} {
		if l.OutputTokens() != 0 {
			t.Errorf("%s: plan has %d output tokens", name, l.OutputTokens())
		}
		if l.Calls() == 0 || l.InputTokens() == 0 {
			t.Errorf("%s: empty plan %v", name, l)
		}
	}
	var calls, in int
	var dollars float64
	buckets := map[string]cost.TierUsage{}
	for _, u := range tiered.TierBreakdown() {
		if u.OutputTokens != 0 {
			t.Errorf("tier %s has %d output tokens", u.Tier, u.OutputTokens)
		}
		calls, in, dollars = calls+u.Calls, in+u.InputTokens, dollars+u.Dollars
		buckets[u.Tier] = u
	}
	if calls != tiered.Calls() || in != tiered.InputTokens() || math.Abs(dollars-tiered.API()) > 1e-12 {
		t.Errorf("tier buckets sum to %d calls, %d in, $%v; ledger %v", calls, in, dollars, tiered)
	}
	exp := buckets[cost.TierExpensive]
	if exp.Calls != single.Calls() || exp.InputTokens != single.InputTokens() {
		t.Errorf("expensive tier %d calls, %d in; single-tier plan %d, %d",
			exp.Calls, exp.InputTokens, single.Calls(), single.InputTokens())
	}
	if buckets[cost.TierCheap].Calls == 0 {
		t.Error("no batch went to the cheap tier")
	}
}

// The plan's calls and input tokens are the number and token count of
// the prompts a run sends, with and without trimmed demonstrations.
func TestPlanInputTokensAgreeWithPrompts(t *testing.T) {
	cases := []struct {
		name  string
		opts  []batcher.Option
		trims bool
	}{
		{"standard prompting", []batcher.Option{batcher.WithBatchSize(1)}, false},
		{"batch 8", []batcher.Option{batcher.WithBatchSize(8)}, false},
		{"batch 48 with 24 demonstrations", []batcher.Option{
			batcher.WithBatchSize(48), batcher.WithNumDemos(24), batcher.WithSelection(batcher.TopKBatch)}, true},
	}
	questions, pool := planQuestions(t, 90)
	for _, c := range cases {
		opts := append([]batcher.Option{batcher.WithSeed(1)}, c.opts...)
		res := planResult(t, questions, pool, c.opts...)
		if trimmed := res.TrimmedDemos > 0; trimmed != c.trims {
			t.Errorf("%s: plan trimmed %d demonstrations", c.name, res.TrimmedDemos)
		}
		l := &res.Ledger
		rec := &promptRecorder{inner: batcher.NewSimulatedClient(append(append([]batcher.Pair(nil), questions...), pool...), 1)}
		if _, err := batcher.New(rec, opts...).Match(context.Background(), questions, pool); err != nil {
			t.Fatalf("%s: run: %v", c.name, err)
		}
		if l.Calls() != rec.prompts || l.InputTokens() != rec.tokens {
			t.Errorf("%s: plan %d calls, %d in; run sent %d prompts of %d tokens",
				c.name, l.Calls(), l.InputTokens(), rec.prompts, rec.tokens)
		}
	}
}

// API dollars are the model's input price on the plan's tokens, the
// labeling charge is LabelPerPair a labeled pair, and the total is both.
func TestPlanDollars(t *testing.T) {
	questions, pool := planQuestions(t, 80)
	api := map[string]float64{}
	for _, model := range []string{batcher.GPT35Turbo0301, batcher.GPT4} {
		l := plan(t, questions, pool, batcher.WithModel(model))
		info, err := llm.Lookup(model)
		if err != nil {
			t.Fatal(err)
		}
		if want := info.Pricing.APICost(l.InputTokens(), 0); math.Abs(l.API()-want) > 1e-12 {
			t.Errorf("%s: API = $%v, want $%v", model, l.API(), want)
		}
		if l.LabeledPairs() == 0 {
			t.Errorf("%s: no demonstration labeled", model)
		}
		if want := float64(l.LabeledPairs()) * cost.LabelPerPair; math.Abs(l.Labeling()-want) > 1e-12 {
			t.Errorf("%s: Labeling = $%v, want $%v", model, l.Labeling(), want)
		}
		if math.Abs(l.Total()-(l.API()+l.Labeling())) > 1e-12 {
			t.Errorf("%s: Total = $%v, want $%v", model, l.Total(), l.API()+l.Labeling())
		}
		api[model] = l.API()
	}
	if api[batcher.GPT4] <= api[batcher.GPT35Turbo0301] {
		t.Errorf("GPT-4 plan $%v not above GPT-3.5's $%v", api[batcher.GPT4], api[batcher.GPT35Turbo0301])
	}
}

// Batching amortises the task description and the demonstrations: the
// paper reports a 4x-7x API saving at batch size 8 over standard
// prompting with the same number of demonstrations a prompt.
func TestPlanBatchingSavesMoney(t *testing.T) {
	questions, pool := planQuestions(t, 80)
	std := plan(t, questions, pool, batcher.WithBatchSize(1), batcher.WithSelection(batcher.TopKBatch))
	batch := plan(t, questions, pool, batcher.WithBatchSize(8), batcher.WithSelection(batcher.TopKBatch))
	ratio := std.API() / batch.API()
	if math.IsNaN(ratio) || ratio < 3 || ratio > 9 {
		t.Errorf("batch 8 $%.4f vs standard $%.4f: saving %.1fx outside the paper's band", batch.API(), std.API(), ratio)
	}
}

func TestPlanString(t *testing.T) {
	questions, pool := planQuestions(t, 40)
	s := plan(t, questions, pool).String()
	for _, want := range []string{"(5 calls, ", " / 0 out tokens)", "total=$"} {
		if !strings.Contains(s, want) {
			t.Errorf("String = %q missing %q", s, want)
		}
	}
}
