package llm

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// HedgeStats is a point-in-time snapshot of a Hedged wrapper's
// counters. Waste counts the loser attempts that completed anyway:
// work the backend did (and a live API would bill) that the run's
// ledger never sees, because the run folds in only the winning
// response. Surfacing it keeps the hedging cost honest.
type HedgeStats struct {
	// Launched is how many hedge (second) attempts were started.
	Launched int64
	// Won is how many hedge attempts beat the primary.
	Won int64
	// WasteCalls is how many loser attempts completed after losing.
	WasteCalls int64
	// WasteInputTokens / WasteOutputTokens are the tokens those loser
	// completions consumed.
	WasteInputTokens  int64
	WasteOutputTokens int64

	// byModel splits the waste tokens by Request.Model, so each loser
	// is priced at the rates of the model it asked for.
	byModel map[string]modelWaste
}

// modelWaste is one model's share of the hedging waste.
type modelWaste struct{ calls, in, out int64 }

// WasteDollars prices the waste at the registry rates of each loser's
// own Request.Model — on a cascade, cheap-tier losers at cheap-tier
// prices — summing models in sorted name order so the total is the same
// float on every run. Unknown models price at zero.
func (s HedgeStats) WasteDollars() float64 {
	var usd float64
	for _, name := range slices.Sorted(maps.Keys(s.byModel)) {
		m, err := Lookup(name)
		if err != nil {
			continue
		}
		w := s.byModel[name]
		usd += m.Pricing.APICost(int(w.in), int(w.out))
	}
	return usd
}

// hedgeResult carries one attempt's outcome across goroutines.
type hedgeResult struct {
	resp Response
	err  error
}

// Hedged wraps a Client with request hedging against tail latency: if
// the primary attempt has not answered within Delay — or fails
// transiently sooner — a second identical attempt is launched and the
// first success wins. The loser is cancelled immediately; if it
// completes anyway its tokens are tallied in HedgeStats as waste, per
// request model, so the extra spend is visible even though only the
// winner reaches the run's ledger. A permanent error from either
// attempt ends the race: the other attempt would be told the same
// thing.
type Hedged struct {
	inner Client
	// delay is how long the primary may run before the hedge launches.
	delay time.Duration
	// sleep is stubbed in tests; nil uses a ctx-aware timer.
	sleep func(time.Duration)

	launched atomic.Int64
	won      atomic.Int64

	mu    sync.Mutex
	waste map[string]modelWaste
}

// NewHedged returns a hedging wrapper that launches a second attempt
// after delay. delay <= 0 disables hedging (calls pass straight
// through).
func NewHedged(inner Client, delay time.Duration) *Hedged {
	return &Hedged{inner: inner, delay: delay, waste: map[string]modelWaste{}}
}

// Stats snapshots the wrapper's counters.
func (h *Hedged) Stats() HedgeStats {
	s := HedgeStats{Launched: h.launched.Load(), Won: h.won.Load()}
	h.mu.Lock()
	defer h.mu.Unlock()
	s.byModel = maps.Clone(h.waste)
	for _, w := range s.byModel {
		s.WasteCalls += w.calls
		s.WasteInputTokens += w.in
		s.WasteOutputTokens += w.out
	}
	return s
}

// harvest drains a cancelled loser in the background, tallying its
// work as waste under the request's model if it completed anyway.
// Cache hits cost nothing and are not waste.
func (h *Hedged) harvest(model string, ch <-chan hedgeResult) {
	go func() {
		r := <-ch
		if r.err != nil || r.resp.CacheHit {
			return
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		w := h.waste[model]
		w.calls++
		w.in += int64(r.resp.InputTokens)
		w.out += int64(r.resp.OutputTokens)
		h.waste[model] = w
	}()
}

// Complete implements Client.
func (h *Hedged) Complete(ctx context.Context, req Request) (Response, error) {
	if h.delay <= 0 {
		return h.inner.Complete(ctx, req)
	}

	primCtx, cancelPrim := context.WithCancel(ctx)
	defer cancelPrim()
	primCh := make(chan hedgeResult, 1)
	go func() {
		r, e := h.inner.Complete(primCtx, req)
		primCh <- hedgeResult{r, e}
	}()

	// Phase 1: wait for the primary or the hedge timer, whichever is
	// first. The timer runs in its own goroutine so a fast primary
	// never waits on it.
	timerCtx, cancelTimer := context.WithCancel(ctx)
	defer cancelTimer()
	timerCh := make(chan error, 1)
	go func() { timerCh <- sleepCtx(timerCtx, h.delay, h.sleep) }()

	var firstErr error
	select {
	case r := <-primCh:
		if r.err == nil || !Transient(r.err) || ctx.Err() != nil {
			return r.resp, r.err
		}
		// The primary failed transiently before the timer: hedge now
		// rather than sitting out the rest of the delay.
		firstErr = r.err
		primCh = nil
	case err := <-timerCh:
		if err != nil { // ctx died during the wait
			<-primCh
			return Response{}, err
		}
	}

	// Phase 2: launch the hedge and race whatever is still in flight.
	h.launched.Add(1)
	hedCtx, cancelHed := context.WithCancel(ctx)
	defer cancelHed()
	hedCh := make(chan hedgeResult, 1)
	go func() {
		r, e := h.inner.Complete(hedCtx, req)
		hedCh <- hedgeResult{r, e}
	}()

	remaining := 2
	if primCh == nil {
		remaining = 1
	}
	for ; remaining > 0; remaining-- {
		var r hedgeResult
		var fromHedge bool
		select {
		case r = <-primCh:
			primCh = nil
		case r = <-hedCh:
			hedCh = nil
			fromHedge = true
		}
		if r.err == nil {
			if fromHedge {
				h.won.Add(1)
				cancelPrim()
			} else {
				cancelHed()
			}
			if primCh != nil {
				h.harvest(req.Model, primCh)
			}
			if hedCh != nil {
				h.harvest(req.Model, hedCh)
			}
			return r.resp, nil
		}
		if !Transient(r.err) && ctx.Err() == nil {
			cancelPrim()
			cancelHed()
			if primCh != nil {
				h.harvest(req.Model, primCh)
			}
			if hedCh != nil {
				h.harvest(req.Model, hedCh)
			}
			return r.resp, r.err
		}
		if firstErr == nil {
			firstErr = r.err
		}
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return Response{}, ctxErr
	}
	return Response{}, firstErr
}
