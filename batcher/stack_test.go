package batcher

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"batcher/internal/llm"
)

// The tests below pin NewClientStack's layer order, one property per
// adjacent pair of layers, with no sleeps: every backoff is zero and
// every hedge timer is an hour long.

// countingBackend counts the calls that reach the base client.
type countingBackend struct {
	inner Client
	calls atomic.Int64
}

func (c *countingBackend) Complete(ctx context.Context, req Request) (Response, error) {
	c.calls.Add(1)
	return c.inner.Complete(ctx, req)
}

// overloaded is a transient backend failure.
func overloaded() error {
	return &APIError{Status: 503, Kind: llm.KindOverloaded, Message: "test: backend down"}
}

// failFirst fails its first n calls transiently, then answers.
type failFirst struct {
	n     int64
	calls atomic.Int64
}

func (f *failFirst) Complete(context.Context, Request) (Response, error) {
	if f.calls.Add(1) <= f.n {
		return Response{}, overloaded()
	}
	return Response{Completion: "ok"}, nil
}

func newStack(t *testing.T, base Client, cfg StackConfig) *ClientStack {
	t.Helper()
	s, err := NewClientStack(context.Background(), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// outage fails every attempt of every request, forever.
var outage = FaultProfile{Overload: 1, MaxFaults: 1 << 30}

// TestClientStackCacheIsOutermost: a rerun over a warm cache is served
// entirely by the cache, even under a total outage with every other
// layer on — no call reaches the backend and no counter moves.
func TestClientStackCacheIsOutermost(t *testing.T) {
	questions, pool := loadSmall(t)
	labeled := append(append([]Pair(nil), questions...), pool...)
	dir := t.TempDir()

	warm := newStack(t, NewSimulatedClient(labeled, 1), StackConfig{CacheDir: dir})
	first, err := New(warm, WithSeed(1)).Match(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	_, misses := warm.CacheStats()
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}

	backend := &countingBackend{inner: NewSimulatedClient(labeled, 1)}
	cold := newStack(t, backend, StackConfig{
		Chaos: outage, ChaosSeed: 7,
		BreakerFails: 2, BreakerCooldown: time.Hour,
		Retries: 5, RetrySeed: 7,
		HedgeAfter: time.Hour,
		CacheDir:   dir,
	})
	again, err := New(cold, WithSeed(1)).Match(context.Background(), questions, pool)
	if err != nil {
		t.Fatalf("cached rerun under an outage failed: %v", err)
	}
	if n := backend.calls.Load(); n != 0 {
		t.Errorf("cached rerun reached the backend %d times", n)
	}
	if st := cold.Stats(); st.Any() {
		t.Errorf("cached rerun moved the transport counters: %s", st.String())
	}
	if h, m := cold.CacheStats(); h != misses || m != 0 {
		t.Errorf("cache hits/misses = %d/%d, want %d/0", h, m, misses)
	}
	for i := range first.Pred {
		if again.Pred[i] != first.Pred[i] {
			t.Fatalf("prediction %d changed on the cached rerun", i)
		}
	}
}

// TestClientStackRetriesOverChaos: retrying sits directly over chaos, so
// under a storm the retry budget absorbs, every injected fault costs
// exactly one retry and the backend sees only the fault-free calls.
func TestClientStackRetriesOverChaos(t *testing.T) {
	questions, pool := loadSmall(t)
	labeled := append(append([]Pair(nil), questions...), pool...)
	clean := &countingBackend{inner: NewSimulatedClient(labeled, 1)}
	if _, err := New(clean, WithSeed(1)).Match(context.Background(), questions, pool); err != nil {
		t.Fatal(err)
	}

	backend := &countingBackend{inner: NewSimulatedClient(labeled, 1)}
	s := newStack(t, backend, StackConfig{
		Chaos:     FaultProfile{Throttle: 0.25, Overload: 0.25, Transport: 0.25, Torn: 0.15, MaxFaults: 2},
		ChaosSeed: 42,
		Retries:   5,
		RetrySeed: 42,
	})
	if _, err := New(s, WithSeed(1)).Match(context.Background(), questions, pool); err != nil {
		t.Fatalf("storm not absorbed: %v", err)
	}
	st := s.Stats()
	if st.FaultsInjected == 0 {
		t.Fatal("the storm injected nothing")
	}
	if st.Retries != st.FaultsInjected {
		t.Errorf("retries = %d, injected faults = %d; want one retry per fault", st.Retries, st.FaultsInjected)
	}
	if backend.calls.Load() != clean.calls.Load() {
		t.Errorf("backend calls = %d, want the fault-free %d", backend.calls.Load(), clean.calls.Load())
	}
}

// TestClientStackBreakerInsideRetrying: the breaker sits under
// retrying, so once it opens the retry loop ends at once with
// ErrCircuitOpen — not after spending the rest of its budget on the
// outage.
func TestClientStackBreakerInsideRetrying(t *testing.T) {
	backend := &countingBackend{inner: NewSimulatedClient(nil, 1)}
	s := newStack(t, backend, StackConfig{
		Chaos: outage, ChaosSeed: 1,
		BreakerFails: 2, BreakerCooldown: time.Hour,
		Retries: 5,
	})
	_, err := s.Complete(context.Background(), Request{Model: GPT35Turbo0301, Prompt: "p"})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	want := Resilience{Retries: 2, BreakerOpens: 1, BreakerRejections: 1, FaultsInjected: 2}
	if st := s.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v (two faults open the breaker, the third attempt is refused and ends the loop)", st, want)
	}
	if n := backend.calls.Load(); n != 0 {
		t.Errorf("backend calls = %d, want 0", n)
	}
}

// TestClientStackHedgesOverRetrying: hedging sits over retrying, so a
// failure the retry budget absorbs launches no hedge; only a call that
// exhausts the budget is hedged, and the hedge gets a budget of its
// own.
func TestClientStackHedgesOverRetrying(t *testing.T) {
	req := Request{Model: GPT35Turbo0301, Prompt: "p"}
	cfg := StackConfig{Retries: 3, HedgeAfter: time.Hour}

	absorbed := newStack(t, &failFirst{n: 2}, cfg)
	if _, err := absorbed.Complete(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := absorbed.Stats(); st.Retries != 2 || st.HedgesLaunched != 0 {
		t.Errorf("absorbed: retries/hedges = %d/%d, want 2/0", st.Retries, st.HedgesLaunched)
	}

	exhausted := newStack(t, &failFirst{n: 3}, cfg)
	resp, err := exhausted.Complete(context.Background(), req)
	if err != nil || resp.Completion != "ok" {
		t.Fatalf("hedged call = %q/%v, want the hedge's answer", resp.Completion, err)
	}
	if st := exhausted.Stats(); st.Retries != 2 || st.HedgesLaunched != 1 || st.HedgesWon != 1 {
		t.Errorf("exhausted: retries/hedges/won = %d/%d/%d, want 2/1/1", st.Retries, st.HedgesLaunched, st.HedgesWon)
	}
}

// expensiveDown serves the cheap model from the simulator and fails
// every expensive-model call transiently. Its first cheap answer is
// unparseable, so exactly one batch escalates into the outage.
type expensiveDown struct {
	inner     Client
	cheap     atomic.Int64
	expensive atomic.Int64
}

func (c *expensiveDown) Complete(ctx context.Context, req Request) (Response, error) {
	if req.Model == GPT4 {
		c.expensive.Add(1)
		return Response{}, overloaded()
	}
	if c.cheap.Add(1) == 1 {
		return Response{Completion: "unparseable"}, nil
	}
	return c.inner.Complete(ctx, req)
}

// TestClientStackBreakerPerTier: an expensive-tier outage opens only
// the expensive tier's breaker, so under DegradeCheapOnly every other
// batch keeps its cheap-tier answer. With one breaker for both tiers —
// the composition the stack replaced — the outage refuses the cheap
// tier too and every batch degrades to Unknown.
func TestClientStackBreakerPerTier(t *testing.T) {
	questions, pool := loadSmall(t)
	labeled := append(append([]Pair(nil), questions...), pool...)
	opts := []Option{WithSeed(1), WithModel(GPT4), WithCheapModel(GPT35Turbo0301), WithDegrade(DegradeCheapOnly)}
	match := func(client Client) *Result {
		t.Helper()
		res, err := New(client, opts...).Match(context.Background(), questions, pool)
		if err != nil {
			t.Fatalf("degraded cascade failed instead of completing: %v", err)
		}
		return res
	}
	// The batch plan is made before any call, so any client shows it.
	plan, err := New(NewSimulatedClient(labeled, 1), opts...).MatchStream(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	batches := plan.Batches()

	shared := &expensiveDown{inner: NewSimulatedClient(labeled, 1)}
	res := match(llm.NewRetryingSeeded(llm.NewBreaker(shared, 2, time.Hour), 3, 0, 1))
	if res.Degraded != len(batches) {
		t.Fatalf("one shared breaker degraded %d of %d batches, want all", res.Degraded, len(batches))
	}

	backend := &expensiveDown{inner: NewSimulatedClient(labeled, 1)}
	s := newStack(t, backend, StackConfig{BreakerFails: 2, BreakerCooldown: time.Hour, Retries: 3})
	res = match(s)
	if res.Degraded != 1 {
		t.Errorf("degraded batches = %d, want only the one that escalated", res.Degraded)
	}
	unknown := 0
	for _, p := range res.Pred {
		if p == Unknown {
			unknown++
		}
	}
	if want := len(batches[0]); unknown != want {
		t.Errorf("Unknown answers = %d, want %d (the escalated batch's only)", unknown, want)
	}
	if n := backend.cheap.Load(); n != int64(len(batches)) {
		t.Errorf("cheap-tier calls = %d, want one per batch (%d)", n, len(batches))
	}
	if st := s.Stats(); st.BreakerOpens != 1 || st.BreakerRejections != 1 {
		t.Errorf("breaker opens/rejections = %d/%d, want 1/1 (the expensive tier's)", st.BreakerOpens, st.BreakerRejections)
	}
}
