package pipeline

import (
	"context"
	"fmt"
	"iter"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/runstore"
)

// loggedCall is one request of the uninterrupted K = 1 run, tagged with
// the window that issued it.
type loggedCall struct {
	window int
	tier   llm.Tier
	prompt string
}

// callLog records every request in arrival order. At K = 1 windows run
// one after another and a window's pairs are emitted before the next
// window is admitted, so the number of pairs emitted so far names the
// window a request belongs to.
type callLog struct {
	inner   llm.Client
	window  int
	emitted atomic.Int64
	mu      sync.Mutex
	calls   []loggedCall
}

func (l *callLog) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	l.mu.Lock()
	l.calls = append(l.calls, loggedCall{window: int(l.emitted.Load()) / l.window, tier: req.Tier, prompt: req.Prompt})
	l.mu.Unlock()
	return l.inner.Complete(ctx, req)
}

// spyBlocker hands the context the executor blocks under to the test:
// the executor cancels it, and then its runners' context, the moment a
// window's failure is committed.
type spyBlocker struct {
	*blocking.TokenBlocker
	ctx chan context.Context
}

func (b spyBlocker) BlockStream(ctx context.Context, tableA, tableB []entity.Record) iter.Seq2[entity.Pair, error] {
	b.ctx <- ctx
	return b.TokenBlocker.BlockStream(ctx, tableA, tableB)
}

// siblingGate choreographs two windows in flight together: window B's
// chosen cheap call is held — after its reply arrived, or inside the
// call — until window A's failure has been committed, and window A's
// chosen batch fails only once B is holding.
type siblingGate struct {
	failPrompt string // window A: every request with this prompt crashes
	holdPrompt string // window B: the cheap call with this prompt is held
	insideCall bool   // hold before the backend answers instead of after
	blockCtx   chan context.Context
	holding    chan struct{}
}

// crasher sits above the backend's call counter: the crashing request
// never reaches the backend, as with failAfterUnits.
type crasher struct {
	g     *siblingGate
	inner llm.Client
}

func (c crasher) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if req.Prompt == c.g.failPrompt {
		<-c.g.holding
		return llm.Response{}, errCrash
	}
	return c.inner.Complete(ctx, req)
}

// holder sits below the backend's call counter: the call it holds has
// been counted (billed) by the time it parks.
type holder struct {
	g     *siblingGate
	inner llm.Client
}

func (h holder) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if req.Tier != llm.TierCheap || req.Prompt != h.g.holdPrompt {
		return h.inner.Complete(ctx, req)
	}
	if h.g.insideCall {
		h.g.park(ctx)
		// As a transport would: a request whose context died in flight
		// comes back as that error (flakyCheap itself never looks).
		if err := ctx.Err(); err != nil {
			return llm.Response{}, err
		}
		return h.inner.Complete(ctx, req)
	}
	resp, err := h.inner.Complete(ctx, req)
	h.g.park(ctx)
	return resp, err
}

// park reports the hold, then waits until the executor has committed
// window A's failure and stopped its stages. A call context that can be
// cancelled at all is waited for too, so an executor that lets the
// cancellation reach a started batch is caught every time, not only
// when the cancel wins a race.
func (g *siblingGate) park(ctx context.Context) {
	close(g.holding)
	<-(<-g.blockCtx).Done()
	if done := ctx.Done(); done != nil {
		<-done
	}
}

// TestCascadeResumeSiblingFailureKeepsBatchWhole is the deterministic
// form of a failure the sampled K = 3 boundary property met a few times
// in a hundred runs: window A fails while its sibling window B is in the
// middle of a batch, the executor cancels B, and the batch is cut
// between its billed, disk-cached cheap call and its escalation — or
// inside a call the backend has already counted. Either way the batch
// reached no journal, and the resume billed it differently from the
// uninterrupted run. A started batch finishes (core.Prepared.Start), so
// crash + resume must reproduce the uninterrupted ledger, tier buckets
// and backend call count exactly.
func TestCascadeResumeSiblingFailureKeepsBatchWhole(t *testing.T) {
	const window = 16
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:90], d.TableB[:90]
	oracle := llm.BuildOracle(d.Pairs)
	newCfg := func(j *runstore.Journal, blocker blocking.Blocker, inFlight, parallelism int) Config {
		return Config{
			Blocker: blocker,
			// EscalateMargin 0: every batch tries the cheap tier first, and
			// the flaky cheap backend escalates a third of them.
			Matcher: core.Config{
				BatchSize:   4,
				Seed:        1,
				Model:       llm.GPT4,
				CheapModel:  llm.GPT35Turbo0301,
				Parallelism: parallelism,
			},
			StreamWindow:    window,
			InFlightWindows: inFlight,
			Journal:         j,
		}
	}
	tokenBlocker := &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2}

	// Uninterrupted K = 1 baseline, logging which window asks what.
	sim := newMemoSim(oracle)
	base := &countingClient{inner: cascadeOver(sim)}
	log := &callLog{inner: base, window: window}
	cfg := newCfg(nil, tokenBlocker, 1, 1)
	cfg.OnPair = func(entity.Pair, entity.Label) { log.emitted.Add(1) }
	baseRep, err := Run(context.Background(), cfg, log, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	totalCalls := base.Calls()

	// Window B is the first window past 0 with a batch that escalates
	// after a cheap reply; window A, its predecessor, fails on its last
	// batch, so everything A completed before is delivered in order.
	var failPrompt, holdPrompt string
	winB := -1
	for i, c := range log.calls {
		if c.window == 0 || c.tier != llm.TierExpensive || i == 0 {
			continue
		}
		if prev := log.calls[i-1]; prev.tier == llm.TierCheap && prev.prompt == c.prompt {
			winB, holdPrompt = c.window, c.prompt
			break
		}
	}
	for _, c := range log.calls {
		if c.window == winB-1 {
			failPrompt = c.prompt
		}
	}
	if winB < 0 || failPrompt == "" {
		t.Fatalf("no window past the first escalates a cheap batch (%d calls logged)", len(log.calls))
	}

	for _, insideCall := range []bool{false, true} {
		for _, parallelism := range []int{1, 2} {
			name := fmt.Sprintf("held_after_cheap_reply/parallelism_%d", parallelism)
			if insideCall {
				name = fmt.Sprintf("held_inside_counted_call/parallelism_%d", parallelism)
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				backend := &countingClient{}
				gate := &siblingGate{
					failPrompt: failPrompt,
					holdPrompt: holdPrompt,
					insideCall: insideCall,
					blockCtx:   make(chan context.Context, 1),
					holding:    make(chan struct{}),
				}
				backend.inner = holder{g: gate, inner: cascadeOver(sim)}

				// Attempt 1: K = 2, window A crashes while B is held.
				j1, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
				if err != nil {
					t.Fatal(err)
				}
				c1, err := runstore.OpenCache(context.Background(), crasher{g: gate, inner: backend}, filepath.Join(dir, "cache"), 0)
				if err != nil {
					t.Fatal(err)
				}
				spy := spyBlocker{TokenBlocker: tokenBlocker, ctx: gate.blockCtx}
				if _, err := Run(context.Background(), newCfg(j1, spy, 2, parallelism), c1, ta, tb); err == nil {
					t.Fatal("crashing run did not fail")
				}
				if err := c1.Close(); err != nil {
					t.Fatal(err)
				}
				if err := j1.Close(); err != nil {
					t.Fatal(err)
				}

				// Attempt 2: resume over the same journal and cache.
				j2, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
				if err != nil {
					t.Fatal(err)
				}
				defer j2.Close()
				if len(j2.State().WindowBatches(winB)) == 0 {
					t.Errorf("window %d was in flight beside the failure, but salvage journaled none of its batches", winB)
				}
				backend.inner = cascadeOver(sim)
				c2, err := runstore.OpenCache(context.Background(), backend, filepath.Join(dir, "cache"), 0)
				if err != nil {
					t.Fatal(err)
				}
				defer c2.Close()
				rep, err := Run(context.Background(), newCfg(j2, tokenBlocker, 2, parallelism), c2, ta, tb)
				if err != nil {
					t.Fatalf("resume failed: %v", err)
				}
				predsEqual(t, "resumed", rep.Result.Pred, baseRep.Result.Pred)
				ledgerEqual(t, "resumed", &rep.Result.Ledger, &baseRep.Result.Ledger)
				tiersEqual(t, "resumed", &rep.Result.Ledger, &baseRep.Result.Ledger)
				if backend.Calls() != totalCalls {
					t.Errorf("backend calls across attempts = %d, want %d (no batch billed twice on any tier)",
						backend.Calls(), totalCalls)
				}
			})
		}
	}
}
