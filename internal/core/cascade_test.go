package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"batcher/internal/cost"
	"batcher/internal/entity"
	"batcher/internal/llm"
)

// evasive answers every request unparseably, forcing Unknown predictions.
type evasive struct {
	mu    sync.Mutex
	calls int
}

func (c *evasive) Complete(_ context.Context, req llm.Request) (llm.Response, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return llm.Response{Completion: "I cannot tell.", InputTokens: 5, OutputTokens: 3}, nil
}

func (c *evasive) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func cascadeConfig(seed int64) Config {
	return Config{
		Batching:   DiversityBatching,
		Selection:  CoveringSelection,
		Model:      llm.GPT4,
		CheapModel: llm.GPT35Turbo0301,
		Seed:       seed,
	}
}

// A confident cheap tier answers everything; the expensive backend must
// never be consulted and the ledger must carry only the cheap bucket.
func TestCascadeCheapAnswersStayCheap(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 24)
	expensive := &evasive{}
	client := llm.NewTiered(newSimClient(questions, pool, 1), expensive)
	f := NewFromConfig(client, cascadeConfig(1))
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if expensive.count() != 0 {
		t.Errorf("expensive backend called %d times, want 0", expensive.count())
	}
	tiers := res.Ledger.TierBreakdown()
	if len(tiers) != 1 || tiers[0].Tier != cost.TierCheap {
		t.Fatalf("tier breakdown = %+v, want cheap only", tiers)
	}
	nb := len(plannedBatches(t, f, questions, pool))
	if tiers[0].Calls != nb || tiers[0].Calls != res.Ledger.Calls() {
		t.Errorf("cheap calls = %d, batches = %d, total calls = %d",
			tiers[0].Calls, nb, res.Ledger.Calls())
	}
	if !strings.Contains(res.Ledger.String(), "cheap=$") {
		t.Errorf("ledger string lacks tier split: %s", res.Ledger.String())
	}
}

// An evasive cheap tier answers nothing parseable: every batch escalates,
// both tiers bill exactly once per batch, and the expensive answers win.
func TestCascadeEscalatesOnUnknown(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 24)
	cheap := &evasive{}
	client := llm.NewTiered(cheap, newSimClient(questions, pool, 1))
	f := NewFromConfig(client, cascadeConfig(1))
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	nb := len(plannedBatches(t, f, questions, pool))
	if cheap.count() != nb {
		t.Errorf("cheap calls = %d, want one per batch (%d)", cheap.count(), nb)
	}
	answered := 0
	for _, p := range res.Pred {
		if p != entity.Unknown {
			answered++
		}
	}
	if answered < len(questions)*9/10 {
		t.Errorf("only %d/%d questions answered after escalation", answered, len(questions))
	}
	tiers := res.Ledger.TierBreakdown()
	if len(tiers) != 2 {
		t.Fatalf("tier breakdown = %+v, want cheap and expensive", tiers)
	}
	var cheapCalls, expCalls int
	var cheapUSD, expUSD float64
	for _, u := range tiers {
		switch u.Tier {
		case cost.TierCheap:
			cheapCalls, cheapUSD = u.Calls, u.Dollars
		case cost.TierExpensive:
			expCalls, expUSD = u.Calls, u.Dollars
		}
	}
	if cheapCalls != nb || expCalls != nb {
		t.Errorf("calls = %d cheap / %d expensive, want %d each", cheapCalls, expCalls, nb)
	}
	if got, want := res.Ledger.Calls(), cheapCalls+expCalls; got != want {
		t.Errorf("total calls %d != tier sum %d", got, want)
	}
	if diff := res.Ledger.API() - (cheapUSD + expUSD); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("api dollars %v != tier sum %v", res.Ledger.API(), cheapUSD+expUSD)
	}
}

// EscalateMargin above every batch margin routes all batches straight to
// the expensive tier: zero cheap spend.
func TestCascadeMarginSkipsCheapTier(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 24)
	cheap := &evasive{}
	cfg := cascadeConfig(1)
	cfg.EscalateMargin = 1.5 // margins are in [0,1]: always below threshold
	client := llm.NewTiered(cheap, newSimClient(questions, pool, 1))
	f := NewFromConfig(client, cfg)
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.count() != 0 {
		t.Errorf("cheap backend called %d times, want 0", cheap.count())
	}
	tiers := res.Ledger.TierBreakdown()
	if len(tiers) != 1 || tiers[0].Tier != cost.TierExpensive {
		t.Fatalf("tier breakdown = %+v, want expensive only", tiers)
	}
	nb := len(plannedBatches(t, f, questions, pool))
	if tiers[0].Calls != nb {
		t.Errorf("expensive calls = %d, want %d", tiers[0].Calls, nb)
	}
}

// An unknown cheap model must fail at Prepare, before anything is billed.
func TestCascadeUnknownCheapModel(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 8)
	cfg := cascadeConfig(1)
	cfg.CheapModel = "no-such-model"
	f := NewFromConfig(newSimClient(questions, pool, 1), cfg)
	if _, err := f.Resolve(context.Background(), questions, pool); err == nil {
		t.Fatal("expected unknown-model error")
	}
}
