package pipeline

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sync"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/cascade"
	"batcher/internal/core"
	"batcher/internal/cost"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/runstore"
)

// flakyCheap simulates a weak cheap tier: a deterministic subset of the
// prompts comes back unparseable, forcing those batches to escalate. The
// subset depends only on the prompt text, so crash, resume, and baseline
// runs all see identical tier decisions.
type flakyCheap struct{ inner llm.Client }

func (c flakyCheap) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	h := fnv.New32a()
	h.Write([]byte(req.Prompt))
	if h.Sum32()%3 == 0 {
		return llm.Response{Completion: "cannot tell.", InputTokens: 7, OutputTokens: 3}, nil
	}
	return c.inner.Complete(ctx, req)
}

// failAfterUnits crashes when a request with a new prompt arrives after
// the budget is spent. A cascade batch's cheap call and its escalated
// retry share one prompt (only the tier differs), so the pair is atomic
// under this counter and every crash lands exactly on a batch boundary —
// the same guarantee failAfter's raw call budget gives single-tier runs.
type failAfterUnits struct {
	inner llm.Client
	mu    sync.Mutex
	left  int
	seen  map[string]bool
}

func (f *failAfterUnits) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	f.mu.Lock()
	if !f.seen[req.Prompt] {
		if f.left <= 0 {
			f.mu.Unlock()
			return llm.Response{}, errCrash
		}
		f.left--
		f.seen[req.Prompt] = true
	}
	f.mu.Unlock()
	return f.inner.Complete(ctx, req)
}

func (f *failAfterUnits) units() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.seen)
}

// tiersEqual asserts two ledgers agree bucket by bucket on the per-tier
// split: calls and tokens exact, dollars up to addition rounding.
func tiersEqual(t *testing.T, tag string, got, want *cost.Ledger) {
	t.Helper()
	gt, wt := got.TierBreakdown(), want.TierBreakdown()
	if len(gt) != len(wt) {
		t.Errorf("%s: tier buckets = %+v, want %+v", tag, gt, wt)
		return
	}
	for i := range wt {
		g, w := gt[i], wt[i]
		if g.Tier != w.Tier || g.Calls != w.Calls || g.InputTokens != w.InputTokens || g.OutputTokens != w.OutputTokens {
			t.Errorf("%s: tier %d = %+v, want %+v", tag, i, g, w)
		}
		diff := g.Dollars - w.Dollars
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(1+w.Dollars) {
			t.Errorf("%s: tier %s dollars = %v, want %v", tag, w.Tier, g.Dollars, w.Dollars)
		}
	}
}

// beerPrefilter trains the shared pre-filter once per test.
func beerPrefilter(t *testing.T, d *entity.Dataset) *cascade.Prefilter {
	t.Helper()
	pf, err := cascade.Train(entity.SplitPairs(d.Pairs).Train, cascade.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// newCascadeBackend builds the simulated two-tier stack: an oracle-backed
// expensive model behind a flaky cheap one.
func newCascadeBackend(oracle llm.Oracle) llm.Client {
	return cascadeOver(llm.NewSimulated(oracle, 1))
}

func cascadeOver(sim llm.Client) llm.Client {
	return llm.NewTiered(flakyCheap{inner: sim}, sim)
}

// runCascadeResumeProperty is the cascade variant of the crash/resume
// property: for every batch boundary k, a cascade run crashed after k
// batches and resumed over the same journal and response cache must
// reproduce the uninterrupted run exactly — identical predictions,
// identical per-tier ledger buckets (calls, tokens, dollars), identical
// auto-resolved count, and every backend call made at most once across
// both attempts on either tier.
func runCascadeResumeProperty(t *testing.T, rc resumeConfig, escalateMargin float64) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:90], d.TableB[:90]
	oracle := llm.BuildOracle(d.Pairs)
	pf := beerPrefilter(t, d)
	newCfg := func(j *runstore.Journal) Config {
		return Config{
			Blocker: &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
			Matcher: core.Config{
				BatchSize:      4,
				Seed:           1,
				Model:          llm.GPT4,
				CheapModel:     llm.GPT35Turbo0301,
				EscalateMargin: escalateMargin,
			},
			StreamWindow:    rc.streamWindow,
			InFlightWindows: rc.inFlight,
			Prefilter:       pf,
			Journal:         j,
		}
	}

	// Uninterrupted baseline: no journal, no cache.
	sim := newMemoSim(oracle)
	base := &countingClient{inner: cascadeOver(sim)}
	units := &failAfterUnits{inner: base, left: 1 << 30, seen: map[string]bool{}}
	baseRep, err := Run(context.Background(), newCfg(nil), units, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	totalCalls := base.Calls()
	totalUnits := units.units()
	if totalUnits < 4 {
		t.Fatalf("want a multi-batch ambiguous band, got %d batches", totalUnits)
	}
	if baseRep.AutoResolved == 0 {
		t.Fatal("pre-filter auto-resolved nothing; the cascade is not exercised")
	}
	if tiers := baseRep.Result.Ledger.TierBreakdown(); len(tiers) != 2 {
		t.Fatalf("baseline tier breakdown = %+v, want both tiers exercised", tiers)
	}

	stride := rc.stride
	if stride <= 0 {
		stride = 1
	}
	for k := 0; k <= totalUnits; k++ {
		if k%stride != 0 && k != totalUnits {
			continue
		}
		t.Run(fmt.Sprintf("crash_after_%d", k), func(t *testing.T) {
			t.Parallel() // boundaries share only read-only inputs and sim
			dir := t.TempDir()
			backend := &countingClient{inner: cascadeOver(sim)}

			// Attempt 1: crash after k completed batches.
			j1, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
			if err != nil {
				t.Fatal(err)
			}
			crash := &failAfterUnits{inner: backend, left: k, seen: map[string]bool{}}
			c1, err := runstore.OpenCache(context.Background(), crash, filepath.Join(dir, "cache"), 0)
			if err != nil {
				t.Fatal(err)
			}
			_, runErr := Run(context.Background(), newCfg(j1), c1, ta, tb)
			if k < totalUnits && runErr == nil {
				t.Fatal("crashing run did not fail")
			}
			if k == totalUnits && runErr != nil {
				t.Fatalf("full-budget run failed: %v", runErr)
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
			c2, err := runstore.OpenCache(context.Background(), backend, filepath.Join(dir, "cache"), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			rep, err := Run(context.Background(), newCfg(j2), c2, ta, tb)
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}

			predsEqual(t, "resumed", rep.Result.Pred, baseRep.Result.Pred)
			if len(rep.Matches) != len(baseRep.Matches) {
				t.Errorf("matches = %d, want %d", len(rep.Matches), len(baseRep.Matches))
			}
			ledgerEqual(t, "resumed", &rep.Result.Ledger, &baseRep.Result.Ledger)
			tiersEqual(t, "resumed", &rep.Result.Ledger, &baseRep.Result.Ledger)
			if rep.AutoResolved != baseRep.AutoResolved {
				t.Errorf("auto-resolved = %d, want %d", rep.AutoResolved, baseRep.AutoResolved)
			}
			// Zero double-billing across crash + resume, on either tier.
			if backend.Calls() != totalCalls {
				t.Errorf("backend calls across attempts = %d, want %d (no batch billed twice on any tier)",
					backend.Calls(), totalCalls)
			}
			// A complete run replays its whole ambiguous band; the
			// auto-resolved mass is re-routed locally, never journaled.
			if k == totalUnits && rep.Replayed != rep.Candidates-rep.AutoResolved {
				t.Errorf("re-run replayed %d of %d ambiguous pairs",
					rep.Replayed, rep.Candidates-rep.AutoResolved)
			}
		})
	}
}

func TestCascadeResumeEveryBatchBoundaryWindowed(t *testing.T) {
	runCascadeResumeProperty(t, resumeConfig{streamWindow: 16}, 0.15)
}

// A single window self-pools the entire ambiguous band, which annotates
// densely enough that every batch's vote margin sits near zero; a zero
// escalation threshold keeps the cheap tier in play (the flaky cheap
// backend still forces Unknown-driven escalations).
func TestCascadeResumeBatchBoundariesCollected(t *testing.T) {
	runCascadeResumeProperty(t, resumeConfig{streamWindow: 0, stride: 13}, 0)
}

func TestCascadeResumeBatchBoundariesPipelined(t *testing.T) {
	runCascadeResumeProperty(t, resumeConfig{streamWindow: 16, inFlight: 3, stride: 7}, 0.15)
}

// TestCascadeAutoResolveBillsNothing pins the cascade's core guarantee:
// pairs the pre-filter auto-resolves never reach the LLM on any tier.
// With thresholds that auto-resolve everything, the whole run must
// complete with zero backend calls and a zero-dollar API ledger.
func TestCascadeAutoResolveBillsNothing(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:90], d.TableB[:90]
	pf := beerPrefilter(t, d).WithThresholds(0.5, 0.5)
	backend := &countingClient{inner: newCascadeBackend(llm.BuildOracle(d.Pairs))}
	cfg := Config{
		Blocker: &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
		Matcher: core.Config{
			BatchSize:  4,
			Seed:       1,
			Model:      llm.GPT4,
			CheapModel: llm.GPT35Turbo0301,
		},
		StreamWindow: 16,
		Prefilter:    pf,
	}
	rep, err := Run(context.Background(), cfg, backend, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if backend.Calls() != 0 {
		t.Errorf("auto-resolved pairs reached the backend: %d calls", backend.Calls())
	}
	if rep.Result.Ledger.Calls() != 0 || rep.Result.Ledger.API() != 0 {
		t.Errorf("ledger billed an all-auto run: %s", rep.Result.Ledger.String())
	}
	if rep.AutoResolved != rep.Candidates || rep.Candidates == 0 {
		t.Errorf("auto-resolved %d of %d candidates, want all", rep.AutoResolved, rep.Candidates)
	}
	for i, p := range rep.Result.Pred {
		if p == entity.Unknown {
			t.Fatalf("auto-resolved pair %d left Unknown", i)
		}
	}
}

// TestCascadeResumeRejectsDifferentRouting guards the cascade stamp: a
// journal written under one pre-filter must refuse to resume under
// different thresholds or tier settings.
func TestCascadeResumeRejectsDifferentRouting(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:60], d.TableB[:60]
	oracle := llm.BuildOracle(d.Pairs)
	pf := beerPrefilter(t, d)
	dir := t.TempDir()

	newCfg := func(j *runstore.Journal, pf *cascade.Prefilter) Config {
		return Config{
			Blocker: &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
			Matcher: core.Config{
				BatchSize:  4,
				Seed:       1,
				Model:      llm.GPT4,
				CheapModel: llm.GPT35Turbo0301,
			},
			StreamWindow: 16,
			Prefilter:    pf,
			Journal:      j,
		}
	}
	j1, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), newCfg(j1, pf), newCascadeBackend(oracle), ta, tb); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	j2, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	shifted := pf.WithThresholds(0.2, 0.8)
	if _, err := Run(context.Background(), newCfg(j2, shifted), newCascadeBackend(oracle), ta, tb); !errors.Is(err, runstore.ErrRunMismatch) {
		t.Errorf("resume under shifted thresholds = %v, want ErrRunMismatch", err)
	}
}
