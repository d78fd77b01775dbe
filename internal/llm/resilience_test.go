package llm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// transientErr builds a counted transient failure.
func transientErr() error {
	return &APIError{Status: 503, Kind: KindOverloaded, Message: "down"}
}

// alwaysFailing is a Client that always fails transiently, counting
// calls.
type alwaysFailing struct{ calls atomic.Int64 }

func (a *alwaysFailing) Complete(context.Context, Request) (Response, error) {
	a.calls.Add(1)
	return Response{}, transientErr()
}

func TestBreakerTripsAndFailsFast(t *testing.T) {
	inner := &alwaysFailing{}
	b := NewBreaker(inner, 3, time.Minute)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	for i := 0; i < 3; i++ {
		if _, err := b.Complete(context.Background(), Request{}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	// Circuit is now open: calls are rejected without touching the
	// backend (the ISSUE's acceptance criterion).
	for i := 0; i < 5; i++ {
		if _, err := b.Complete(context.Background(), Request{}); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open call %d: err = %v, want ErrCircuitOpen", i, err)
		}
	}
	if got := inner.calls.Load(); got != 3 {
		t.Errorf("backend saw %d calls, want 3 (none while open)", got)
	}
	if b.Opens() != 1 || b.Rejections() != 5 {
		t.Errorf("opens/rejections = %d/%d, want 1/5", b.Opens(), b.Rejections())
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	inner := &scripted{
		resps: []Response{{}, {}, {Completion: "ok"}, {Completion: "ok"}},
		errs:  []error{transientErr(), transientErr(), nil, nil},
	}
	b := NewBreaker(inner, 2, time.Minute)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	b.Complete(context.Background(), Request{})
	b.Complete(context.Background(), Request{}) // trips
	if _, err := b.Complete(context.Background(), Request{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	now = now.Add(time.Minute) // cooldown elapses: next call probes
	if resp, err := b.Complete(context.Background(), Request{}); err != nil || resp.Completion != "ok" {
		t.Fatalf("probe = %q/%v, want success", resp.Completion, err)
	}
	// Probe succeeded: circuit closed, calls flow again.
	if resp, err := b.Complete(context.Background(), Request{}); err != nil || resp.Completion != "ok" {
		t.Fatalf("post-probe = %q/%v, want success", resp.Completion, err)
	}
}

func TestBreakerHalfOpenProbeRetrips(t *testing.T) {
	inner := &alwaysFailing{}
	b := NewBreaker(inner, 1, time.Minute)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	b.Complete(context.Background(), Request{}) // trips immediately
	now = now.Add(time.Minute)
	if _, err := b.Complete(context.Background(), Request{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("probe err = %v", err)
	}
	// Failed probe re-opens for a full fresh cooldown.
	if _, err := b.Complete(context.Background(), Request{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen after failed probe", err)
	}
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("backend saw %d calls, want 2", got)
	}
	if b.Opens() != 2 {
		t.Errorf("opens = %d, want 2", b.Opens())
	}
}

func TestBreakerPermanentAnswerCountsAsAlive(t *testing.T) {
	perm := &APIError{Status: 400, Kind: KindPermanent, Message: "bad request"}
	inner := &scripted{errs: []error{transientErr(), perm, transientErr(), transientErr(), nil}}
	b := NewBreaker(inner, 2, time.Minute)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	b.Complete(context.Background(), Request{}) // 1 transient fail
	// A permanent API answer proves the backend is alive: the failure
	// streak resets instead of tripping.
	if _, err := b.Complete(context.Background(), Request{}); !errors.Is(err, ErrPermanent) {
		t.Fatalf("err = %v", err)
	}
	b.Complete(context.Background(), Request{}) // fresh streak: 1
	b.Complete(context.Background(), Request{}) // 2 → trips now
	if _, err := b.Complete(context.Background(), Request{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if inner.calls != 4 {
		t.Errorf("backend saw %d calls, want 4", inner.calls)
	}
}

func TestBreakerCallerCancelIsNeutral(t *testing.T) {
	inner := &scripted{errs: []error{context.Canceled, context.Canceled, context.Canceled}}
	b := NewBreaker(inner, 1, time.Minute)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		// The inner call observes the dead ctx; the breaker must not
		// count the caller's own cancellation as backend failure.
		b.Complete(ctx, Request{})
	}
	if b.Opens() != 0 {
		t.Errorf("caller cancellations tripped the breaker %d times", b.Opens())
	}
}

func TestBreakerPerTierUnderTiered(t *testing.T) {
	okCheap := &scripted{resps: make([]Response, 10)}
	downExp := &alwaysFailing{}
	cheapBr := NewBreaker(okCheap, 2, time.Minute)
	expBr := NewBreaker(downExp, 2, time.Minute)
	now := time.Unix(0, 0)
	cheapBr.now = func() time.Time { return now }
	expBr.now = func() time.Time { return now }
	tiered := NewTiered(cheapBr, expBr)
	ctx := context.Background()
	tiered.Complete(ctx, Request{Tier: TierExpensive})
	tiered.Complete(ctx, Request{Tier: TierExpensive}) // expensive trips
	if _, err := tiered.Complete(ctx, Request{Tier: TierExpensive}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("expensive err = %v, want ErrCircuitOpen", err)
	}
	// The cheap tier's circuit is independent and still closed.
	if _, err := tiered.Complete(ctx, Request{Tier: TierCheap}); err != nil {
		t.Fatalf("cheap tier poisoned by expensive outage: %v", err)
	}
	if cheapBr.Opens() != 0 || expBr.Opens() != 1 {
		t.Errorf("opens cheap/expensive = %d/%d, want 0/1", cheapBr.Opens(), expBr.Opens())
	}
}

// blockUntilCancel is a Client whose first call blocks until its ctx
// dies, then fails with the ctx error; later calls answer immediately.
type blockUntilCancel struct {
	calls atomic.Int64
	resp  Response
}

func (s *blockUntilCancel) Complete(ctx context.Context, _ Request) (Response, error) {
	if s.calls.Add(1) == 1 {
		<-ctx.Done()
		return Response{}, ctx.Err()
	}
	return s.resp, nil
}

func TestHedgedFastPrimaryNeverHedges(t *testing.T) {
	inner := &scripted{resps: []Response{{Completion: "ok"}}}
	h := NewHedged(inner, time.Hour)
	resp, err := h.Complete(context.Background(), Request{})
	if err != nil || resp.Completion != "ok" {
		t.Fatalf("resp = %q/%v", resp.Completion, err)
	}
	if inner.calls != 1 {
		t.Errorf("calls = %d, want 1", inner.calls)
	}
	if s := h.Stats(); s.Launched != 0 {
		t.Errorf("launched = %d, want 0", s.Launched)
	}
}

func TestHedgedWinsAgainstStuckPrimary(t *testing.T) {
	inner := &blockUntilCancel{resp: Response{Completion: "hedged"}}
	h := NewHedged(inner, time.Millisecond)
	resp, err := h.Complete(context.Background(), Request{})
	if err != nil || resp.Completion != "hedged" {
		t.Fatalf("resp = %q/%v", resp.Completion, err)
	}
	s := h.Stats()
	if s.Launched != 1 || s.Won != 1 {
		t.Errorf("launched/won = %d/%d, want 1/1", s.Launched, s.Won)
	}
	if s.WasteCalls != 0 {
		t.Errorf("cancelled loser counted as waste: %d", s.WasteCalls)
	}
}

func TestHedgedLaunchesEarlyOnTransientFailure(t *testing.T) {
	inner := &scripted{
		resps: []Response{{}, {Completion: "ok"}},
		errs:  []error{transientErr(), nil},
	}
	h := NewHedged(inner, time.Hour) // timer would take an hour; failure hedges now
	resp, err := h.Complete(context.Background(), Request{})
	if err != nil || resp.Completion != "ok" {
		t.Fatalf("resp = %q/%v", resp.Completion, err)
	}
	if inner.calls != 2 {
		t.Errorf("calls = %d, want 2", inner.calls)
	}
	if s := h.Stats(); s.Launched != 1 || s.Won != 1 {
		t.Errorf("launched/won = %d/%d, want 1/1", s.Launched, s.Won)
	}
}

func TestHedgedPermanentPrimaryReturnsImmediately(t *testing.T) {
	perm := &APIError{Status: 400, Kind: KindPermanent, Message: "nope"}
	inner := &scripted{errs: []error{perm, nil}}
	h := NewHedged(inner, time.Hour)
	if _, err := h.Complete(context.Background(), Request{}); !errors.Is(err, ErrPermanent) {
		t.Fatalf("err = %v, want ErrPermanent", err)
	}
	if inner.calls != 1 {
		t.Errorf("calls = %d, want 1 (no hedge for a permanent answer)", inner.calls)
	}
}

func TestHedgedBothFail(t *testing.T) {
	first := transientErr()
	inner := &scripted{errs: []error{first, transientErr()}}
	h := NewHedged(inner, time.Hour)
	if _, err := h.Complete(context.Background(), Request{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want the transient failure", err)
	}
	if inner.calls != 2 {
		t.Errorf("calls = %d, want 2", inner.calls)
	}
}

// slowThenDone ignores cancellation: its first call completes with
// tokens after a short real delay, simulating a response that was
// already on the wire when the hedge won.
type slowThenDone struct{ calls atomic.Int64 }

func (s *slowThenDone) Complete(ctx context.Context, _ Request) (Response, error) {
	if s.calls.Add(1) == 1 {
		time.Sleep(20 * time.Millisecond)
		return Response{Completion: "late", InputTokens: 7, OutputTokens: 3}, nil
	}
	return Response{Completion: "fast", InputTokens: 1, OutputTokens: 1}, nil
}

func TestHedgedCountsLoserWaste(t *testing.T) {
	inner := &slowThenDone{}
	h := NewHedged(inner, time.Millisecond)
	resp, err := h.Complete(context.Background(), Request{})
	if err != nil || resp.Completion != "fast" {
		t.Fatalf("resp = %q/%v", resp.Completion, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s := h.Stats(); s.WasteCalls == 1 {
			if s.WasteInputTokens != 7 || s.WasteOutputTokens != 3 {
				t.Fatalf("waste tokens = %d/%d, want 7/3", s.WasteInputTokens, s.WasteOutputTokens)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("loser completion never tallied as waste")
}

// gatedFirst parks each model's first call until release closes and
// then completes it with a large usage, ignoring cancellation like a
// response already on the wire; every later call answers at once.
type gatedFirst struct {
	mu      sync.Mutex
	seen    map[string]bool
	release chan struct{}
}

func (g *gatedFirst) Complete(_ context.Context, req Request) (Response, error) {
	g.mu.Lock()
	first := !g.seen[req.Model]
	g.seen[req.Model] = true
	g.mu.Unlock()
	if first {
		<-g.release
		return Response{Completion: "late", InputTokens: 1000, OutputTokens: 100}, nil
	}
	return Response{Completion: "fast", InputTokens: 1, OutputTokens: 1}, nil
}

// TestHedgedPricesWastePerRequestModel: a cascade's hedging losers are
// priced at the model each one asked for. Pricing the summed waste at
// the expensive model's rates — one model for the whole run — bills
// the cheap tier's loser 10x/15x too high.
func TestHedgedPricesWastePerRequestModel(t *testing.T) {
	inner := &gatedFirst{seen: map[string]bool{}, release: make(chan struct{})}
	h := NewHedged(inner, time.Hour)
	h.sleep = func(time.Duration) {} // the hedge launches at once
	for _, model := range []string{GPT4, GPT35Turbo0301} {
		resp, err := h.Complete(context.Background(), Request{Model: model})
		if err != nil || resp.Completion != "fast" {
			t.Fatalf("%s: resp = %q/%v", model, resp.Completion, err)
		}
	}
	close(inner.release)
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().WasteCalls < 2 {
		if time.Now().After(deadline) {
			t.Fatal("loser completions never tallied as waste")
		}
		time.Sleep(time.Millisecond)
	}
	s := h.Stats()
	if s.WasteCalls != 2 || s.WasteInputTokens != 2000 || s.WasteOutputTokens != 200 {
		t.Fatalf("waste = %d calls, %d/%d tokens, want 2, 2000/200", s.WasteCalls, s.WasteInputTokens, s.WasteOutputTokens)
	}
	expensive, _ := Lookup(GPT4)
	cheap, _ := Lookup(GPT35Turbo0301)
	want := cheap.Pricing.APICost(1000, 100) + expensive.Pricing.APICost(1000, 100)
	if got := s.WasteDollars(); got != want {
		t.Errorf("WasteDollars = %v, want %v (each loser at its own model's rates)", got, want)
	}
	oneModel := expensive.Pricing.APICost(int(s.WasteInputTokens), int(s.WasteOutputTokens))
	if oneModel == want {
		t.Fatalf("pricing all waste at %s gives the per-model sum too; the test cannot tell them apart", GPT4)
	}
}

func TestChaosDeterministicAcrossInstances(t *testing.T) {
	req := Request{Model: "m", Prompt: "p"}
	observe := func() []string {
		inner := &scripted{resps: make([]Response, 10)}
		c := NewChaos(inner, FaultProfile{Overload: 0.5, Throttle: 0.3, MaxFaults: 5}, 42)
		var seq []string
		for i := 0; i < 8; i++ {
			_, err := c.Complete(context.Background(), req)
			switch {
			case err == nil:
				seq = append(seq, "ok")
			case errors.Is(err, ErrThrottled):
				seq = append(seq, "throttled")
			case errors.Is(err, ErrOverloaded):
				seq = append(seq, "overloaded")
			default:
				seq = append(seq, "other")
			}
		}
		return seq
	}
	a, b := observe(), observe()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a, b)
		}
	}
	// Past MaxFaults the key is left alone.
	for i := 5; i < 8; i++ {
		if a[i] != "ok" {
			t.Errorf("attempt %d = %s, want ok after MaxFaults", i, a[i])
		}
	}
}

func TestChaosNeverBillsInjectedFaults(t *testing.T) {
	inner := &scripted{resps: make([]Response, 10)}
	c := NewChaos(inner, FaultProfile{Throttle: 1, MaxFaults: 2}, 1)
	req := Request{Model: "m", Prompt: "p"}
	for i := 0; i < 2; i++ {
		if _, err := c.Complete(context.Background(), req); !errors.Is(err, ErrThrottled) {
			t.Fatalf("attempt %d: err = %v, want ErrThrottled", i, err)
		}
	}
	if inner.calls != 0 {
		t.Errorf("injected faults reached the backend %d times", inner.calls)
	}
	if _, err := c.Complete(context.Background(), req); err != nil {
		t.Fatalf("post-fault attempt failed: %v", err)
	}
	if inner.calls != 1 || c.Injected() != 2 {
		t.Errorf("calls/injected = %d/%d, want 1/2", inner.calls, c.Injected())
	}
}

func TestChaosThrottleCarriesRetryAfter(t *testing.T) {
	c := NewChaos(&scripted{}, FaultProfile{Throttle: 1, RetryAfter: 2 * time.Second}, 1)
	_, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"})
	if d, ok := RetryAfterHint(err); !ok || d != 2*time.Second {
		t.Errorf("hint = %v/%v, want 2s", d, ok)
	}
}
