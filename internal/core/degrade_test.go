package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"batcher/internal/cost"
	"batcher/internal/entity"
	"batcher/internal/llm"
)

// openCircuit refuses every call the way an open breaker does, counting
// the refusals.
type openCircuit struct {
	mu    sync.Mutex
	calls int
}

func (c *openCircuit) Complete(context.Context, llm.Request) (llm.Response, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return llm.Response{}, llm.ErrCircuitOpen
}

func (c *openCircuit) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func TestParseDegradePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DegradePolicy
		ok   bool
	}{
		{"", DegradeFailFast, true},
		{"fail-fast", DegradeFailFast, true},
		{"unknown", DegradeUnknown, true},
		{"cheap-only", DegradeCheapOnly, true},
		{"bogus", 0, false},
	} {
		got, err := ParseDegradePolicy(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseDegradePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseDegradePolicy(%q) accepted", tc.in)
		}
	}
	for _, p := range []DegradePolicy{DegradeFailFast, DegradeUnknown, DegradeCheapOnly} {
		back, err := ParseDegradePolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round-trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
}

// The default policy keeps the old contract: a circuit-open refusal
// fails the run like any other error.
func TestDegradeFailFastIsDefault(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 16)
	f := NewFromConfig(&openCircuit{}, Config{Seed: 1})
	res, err := f.Resolve(context.Background(), questions, pool)
	if !errors.Is(err, llm.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if res != nil && res.Degraded != 0 {
		t.Errorf("fail-fast run recorded %d degraded batches", res.Degraded)
	}
}

// Under DegradeUnknown a total outage still completes: every batch is
// answered Unknown, marked Degraded, and bills nothing.
func TestDegradeUnknownCompletesOutage(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 16)
	client := &openCircuit{}
	f := NewFromConfig(client, Config{Seed: 1, Degrade: DegradeUnknown})
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	nb := len(plannedBatches(t, f, questions, pool))
	if res.Degraded != nb || res.Degraded == 0 {
		t.Errorf("Degraded = %d, want every one of %d batches", res.Degraded, nb)
	}
	for i, p := range res.Pred {
		if p != entity.Unknown {
			t.Fatalf("pred[%d] = %v, want Unknown", i, p)
		}
	}
	if res.Ledger.API() != 0 || res.Ledger.Calls() != 0 {
		t.Errorf("degraded batches billed: %s", res.Ledger.String())
	}
	if client.count() != nb {
		t.Errorf("breaker consulted %d times, want once per batch (%d)", client.count(), nb)
	}
}

// Degradation is strictly a circuit-open affordance: other errors —
// transient or not — still fail the run even under DegradeUnknown, so
// the retry/breaker stack stays the only thing that absorbs faults.
func TestDegradeIgnoresOtherErrors(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 16)
	boom := &llm.APIError{Status: 503, Kind: llm.KindOverloaded, Message: "overloaded"}
	f := NewFromConfig(&scriptedErr{err: boom}, Config{Seed: 1, Degrade: DegradeUnknown})
	if _, err := f.Resolve(context.Background(), questions, pool); !errors.Is(err, llm.ErrOverloaded) {
		t.Fatalf("err = %v, want the overload error surfaced", err)
	}
}

// scriptedErr fails every call with one fixed error.
type scriptedErr struct{ err error }

func (s *scriptedErr) Complete(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{}, s.err
}

// firstOnly answers only a prompt's first question, "Yes": every batch
// of two or more questions comes back partly Unknown and escalates.
type firstOnly struct{ evasive }

func (c *firstOnly) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	c.evasive.Complete(ctx, req) // counts the call
	return llm.Response{Completion: "Question 1: Yes", InputTokens: 5, OutputTokens: 3}, nil
}

// On a cascade run DegradeCheapOnly stands on the cheap tier's answer
// when the expensive tier is refused: the cheap answers, Unknowns and
// all, become the batch's predictions, the cheap spend stays billed on
// the batch and the batch is stamped cheap-tier, Degraded.
func TestDegradeCheapOnlyKeepsCheapAnswerAndSpend(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 24)
	cheap := &firstOnly{}
	client := llm.NewTiered(cheap, &openCircuit{})
	cfg := cascadeConfig(1)
	cfg.Degrade = DegradeCheapOnly
	f := NewFromConfig(client, cfg)
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	batches := plannedBatches(t, f, questions, pool)
	nb, escalated := len(batches), 0
	for _, b := range batches {
		if len(b) > 1 {
			escalated++
		}
		for i, qi := range b {
			want := entity.Unknown
			if i == 0 {
				want = entity.Match
			}
			if res.Pred[qi] != want {
				t.Errorf("pred[%d] (position %d of its batch) = %v, want the cheap tier's %v", qi, i, res.Pred[qi], want)
			}
		}
	}
	if res.Degraded != escalated || res.Degraded == 0 {
		t.Errorf("Degraded = %d, want the %d batches the cheap tier left partly Unknown", res.Degraded, escalated)
	}
	if cheap.count() != nb {
		t.Errorf("cheap calls = %d, want one per batch (%d)", cheap.count(), nb)
	}
	tiers := res.Ledger.TierBreakdown()
	if len(tiers) != 1 || tiers[0].Tier != cost.TierCheap {
		t.Fatalf("tier breakdown = %+v, want the cheap attempt's spend only", tiers)
	}
	if tiers[0].Calls != nb {
		t.Errorf("cheap tier calls = %d, want %d", tiers[0].Calls, nb)
	}
}

// Without a cheap answer to stand on (EscalateMargin bypasses the cheap
// tier entirely), DegradeCheapOnly falls back to Unknown placeholders.
func TestDegradeCheapOnlyFallsBackToUnknown(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 16)
	cheap := &evasive{}
	client := llm.NewTiered(cheap, &openCircuit{})
	cfg := cascadeConfig(1)
	cfg.EscalateMargin = 1.5 // margins are in [0,1]: every batch bypasses cheap
	cfg.Degrade = DegradeCheapOnly
	f := NewFromConfig(client, cfg)
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.count() != 0 {
		t.Errorf("cheap backend called %d times, want 0", cheap.count())
	}
	nb := len(plannedBatches(t, f, questions, pool))
	if res.Degraded != nb {
		t.Errorf("Degraded = %d, want %d", res.Degraded, nb)
	}
	for i, p := range res.Pred {
		if p != entity.Unknown {
			t.Fatalf("pred[%d] = %v, want Unknown", i, p)
		}
	}
	if res.Ledger.Calls() != 0 {
		t.Errorf("bypassed batches billed: %s", res.Ledger.String())
	}
}
