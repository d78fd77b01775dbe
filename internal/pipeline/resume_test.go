package pipeline

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/cost"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/runstore"
)

// countingClient counts the real LLM calls reaching the backend.
type countingClient struct {
	inner llm.Client
	mu    sync.Mutex
	calls int
}

func (c *countingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.inner.Complete(ctx, req)
}

func (c *countingClient) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// memoSim is the oracle-backed simulator with its answers remembered.
// The simulator is a pure function of the request, and the crash/resume
// properties re-issue one run's prompts hundreds of times over; sharing
// one computation of each keeps them affordable at every boundary. It
// sits below the call counters and fault injectors, so what a test
// counts, crashes, or caches is unchanged.
type memoSim struct {
	sim  llm.Client
	mu   sync.Mutex
	memo map[llm.Request]llm.Response
}

func newMemoSim(oracle llm.Oracle) *memoSim {
	return &memoSim{sim: llm.NewSimulated(oracle, 1), memo: map[llm.Request]llm.Response{}}
}

func (m *memoSim) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if err := ctx.Err(); err != nil { // as the simulator itself answers a dead ctx
		return llm.Response{}, err
	}
	m.mu.Lock()
	resp, ok := m.memo[req]
	m.mu.Unlock()
	if ok {
		return resp, nil
	}
	resp, err := m.sim.Complete(ctx, req)
	if err == nil {
		m.mu.Lock()
		m.memo[req] = resp
		m.mu.Unlock()
	}
	return resp, err
}

var errCrash = errors.New("simulated crash")

// failAfter errors every request once its budget of successful calls is
// spent — a process kill at an LLM-call (batch) boundary.
type failAfter struct {
	inner llm.Client
	mu    sync.Mutex
	left  int
}

func (f *failAfter) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	f.mu.Lock()
	if f.left <= 0 {
		f.mu.Unlock()
		return llm.Response{}, errCrash
	}
	f.left--
	f.mu.Unlock()
	return f.inner.Complete(ctx, req)
}

// ledgerEqual asserts two ledgers agree on every counter, dollars exact.
func ledgerEqual(t *testing.T, tag string, got, want *cost.Ledger) {
	t.Helper()
	if got.Calls() != want.Calls() {
		t.Errorf("%s: calls = %d, want %d", tag, got.Calls(), want.Calls())
	}
	if got.InputTokens() != want.InputTokens() || got.OutputTokens() != want.OutputTokens() {
		t.Errorf("%s: tokens = %d/%d, want %d/%d", tag,
			got.InputTokens(), got.OutputTokens(), want.InputTokens(), want.OutputTokens())
	}
	// Dollar totals are float sums; a resumed run associates the same
	// per-batch deltas in a different grouping (journaled prefix merged
	// as one block), so equality holds only up to addition rounding.
	// Every integer counter above is exact.
	diff := got.API() - want.API()
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-9*(1+want.API()) {
		t.Errorf("%s: api = %v, want %v", tag, got.API(), want.API())
	}
	if got.LabeledPairs() != want.LabeledPairs() {
		t.Errorf("%s: labeled = %d, want %d", tag, got.LabeledPairs(), want.LabeledPairs())
	}
}

func predsEqual(t *testing.T, tag string, got, want []entity.Label) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pred[%d] = %v, want %v", tag, i, got[i], want[i])
		}
	}
}

// resumeConfig is one scenario of the crash/resume property test: a
// (StreamWindow, InFlightWindows) shape of the executor plus the pool
// mode.
type resumeConfig struct {
	streamWindow int
	sharedPool   bool
	// inFlight is Config.InFlightWindows; above 1 a crash leaves several
	// windows in flight for the committer to salvage.
	inFlight int
	// stride samples every stride-th crash boundary (always including
	// the first and last); 1 tests every boundary.
	stride int
}

// runResumeProperty checks, for every LLM-call boundary k: a run crashed
// after k calls and then resumed over the same journal and response
// cache yields exactly the predictions and ledger totals of an
// uninterrupted run, with every backend call made at most once across
// both attempts (zero double-billing).
func runResumeProperty(t *testing.T, rc resumeConfig) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:90], d.TableB[:90]
	oracle := llm.BuildOracle(d.Pairs)
	newCfg := func(j *runstore.Journal) Config {
		cfg := Config{
			Blocker:         &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
			Matcher:         core.Config{BatchSize: 4, Seed: 1},
			StreamWindow:    rc.streamWindow,
			InFlightWindows: rc.inFlight,
			Journal:         j,
		}
		if rc.sharedPool {
			cfg.Pool = entity.SplitPairs(d.Pairs).Train
		}
		return cfg
	}

	// Uninterrupted baseline: no journal, no cache, plain client.
	sim := newMemoSim(oracle)
	base := &countingClient{inner: sim}
	baseRep, err := Run(context.Background(), newCfg(nil), base, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	totalCalls := base.Calls()
	if totalCalls < 4 {
		t.Fatalf("want a multi-batch run, got %d calls", totalCalls)
	}

	stride := rc.stride
	if stride <= 0 {
		stride = 1
	}
	for k := 0; k <= totalCalls; k++ {
		if k%stride != 0 && k != totalCalls {
			continue
		}
		t.Run(fmt.Sprintf("crash_after_%d", k), func(t *testing.T) {
			t.Parallel() // boundaries share only read-only inputs and sim
			dir := t.TempDir()
			backend := &countingClient{inner: sim}

			// Attempt 1: crash after k successful calls.
			j1, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
			if err != nil {
				t.Fatal(err)
			}
			c1, err := runstore.OpenCache(context.Background(), &failAfter{inner: backend, left: k}, filepath.Join(dir, "cache"), 0)
			if err != nil {
				t.Fatal(err)
			}
			_, runErr := Run(context.Background(), newCfg(j1), c1, ta, tb)
			if k < totalCalls && runErr == nil {
				t.Fatal("crashing run did not fail")
			}
			if k == totalCalls && runErr != nil {
				t.Fatalf("full-budget run failed: %v", runErr)
			}
			if err := c1.Close(); err != nil {
				t.Fatal(err)
			}
			if err := j1.Close(); err != nil {
				t.Fatal(err)
			}

			// Attempt 2: resume over the same journal and cache with a
			// healthy client.
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
			if rep.Result.PromptTokens != baseRep.Result.PromptTokens {
				t.Errorf("prompt tokens = %d, want %d", rep.Result.PromptTokens, baseRep.Result.PromptTokens)
			}
			if rep.Result.DemosLabeled != baseRep.Result.DemosLabeled {
				t.Errorf("demos labeled = %d, want %d", rep.Result.DemosLabeled, baseRep.Result.DemosLabeled)
			}
			// Zero double-billing: across crash + resume, each batch hit
			// the backend exactly once.
			if backend.Calls() != totalCalls {
				t.Errorf("backend calls across attempts = %d, want %d (no pair billed twice)",
					backend.Calls(), totalCalls)
			}
			if k == totalCalls && rep.Replayed != rep.Candidates {
				t.Errorf("re-run of a complete run replayed %d of %d", rep.Replayed, rep.Candidates)
			}
		})
	}
}

// The resume property over the executor's shapes. Every batch boundary
// is crashed at K = 1 (nothing else in flight) and at K = 4, where the
// committer must also salvage every batch the abandoned in-flight
// windows completed, so that with the persistent cache attached a
// resume replays them and nothing is billed twice. The shared-pool and
// single-window variants exercise the same replay machinery down
// different ledger paths; sampled boundaries keep the suite fast.
func TestResumeEveryBatchBoundaryWindowed(t *testing.T) {
	runResumeProperty(t, resumeConfig{streamWindow: 16})
}

func TestResumeEveryBatchBoundaryPipelined(t *testing.T) {
	runResumeProperty(t, resumeConfig{streamWindow: 16, inFlight: 4})
}

func TestResumeBatchBoundariesWindowedSharedPool(t *testing.T) {
	runResumeProperty(t, resumeConfig{streamWindow: 16, sharedPool: true, stride: 7})
}

func TestResumeBatchBoundariesPipelinedSharedPool(t *testing.T) {
	runResumeProperty(t, resumeConfig{streamWindow: 16, sharedPool: true, inFlight: 3, stride: 7})
}

func TestResumeBatchBoundariesCollected(t *testing.T) {
	runResumeProperty(t, resumeConfig{streamWindow: 0, stride: 7})
}

// TestResumeLargeRunArbitraryBoundary is the acceptance-scale check: a
// 1000x1000 simulated run interrupted at an arbitrary batch boundary,
// resumed, and compared to the uninterrupted run — identical predictions
// and ledger totals, zero double-billed pairs.
func TestResumeLargeRunArbitraryBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("large resume property test")
	}
	spec := datagen.CustomSpec{
		Name:   "resume1k",
		Domain: "stress",
		Attrs: []datagen.AttrSpec{
			{Name: "title", Vocab: vocabWords(200), Tokens: 4},
			{Name: "maker", Vocab: vocabWords(40), Tokens: 1, KeepOnHardNeg: true},
			{Name: "year", Numeric: true, Min: 1990, Max: 2024},
		},
		NumPairs:   1000,
		NumMatches: 300,
	}
	d, err := datagen.GenerateCustom(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.TableA) < 900 || len(d.TableB) < 900 {
		t.Fatalf("tables too small for the 1k x 1k scenario: %d x %d", len(d.TableA), len(d.TableB))
	}
	oracle := llm.BuildOracle(d.Pairs)
	newCfg := func(j *runstore.Journal) Config {
		return Config{
			Blocker:      &blocking.TokenBlocker{Attr: "title", MinShared: 2},
			Matcher:      core.Config{Seed: 1},
			StreamWindow: 128,
			Journal:      j,
		}
	}

	base := &countingClient{inner: llm.NewSimulated(oracle, 1)}
	baseRep, err := Run(context.Background(), newCfg(nil), base, d.TableA, d.TableB)
	if err != nil {
		t.Fatal(err)
	}
	totalCalls := base.Calls()
	if baseRep.Candidates < 500 || totalCalls < 40 {
		t.Fatalf("scenario too small: %d candidates, %d calls", baseRep.Candidates, totalCalls)
	}

	// An arbitrary interior boundary: deep enough that whole windows
	// replay and one window is mid-flight.
	k := totalCalls * 5 / 8
	dir := t.TempDir()
	backend := &countingClient{inner: llm.NewSimulated(oracle, 1)}

	j1, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := runstore.OpenCache(context.Background(), &failAfter{inner: backend, left: k}, filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), newCfg(j1), c1, d.TableA, d.TableB); err == nil {
		t.Fatal("crashing run did not fail")
	}
	c1.Close()
	j1.Close()

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
	rep, err := Run(context.Background(), newCfg(j2), c2, d.TableA, d.TableB)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	predsEqual(t, "resumed-1k", rep.Result.Pred, baseRep.Result.Pred)
	ledgerEqual(t, "resumed-1k", &rep.Result.Ledger, &baseRep.Result.Ledger)
	if backend.Calls() != totalCalls {
		t.Errorf("backend calls across attempts = %d, want %d (zero double-billed pairs)",
			backend.Calls(), totalCalls)
	}
	if rep.Replayed == 0 {
		t.Error("resume replayed nothing; the journal was not used")
	}
}

// TestResumeRejectsMismatchedRun guards the fingerprint: a journal from
// one configuration must refuse to resume under another.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:60], d.TableB[:60]
	client := llm.NewSimulated(llm.BuildOracle(d.Pairs), 1)
	dir := t.TempDir()

	j1, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Blocker:      &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
		Matcher:      core.Config{BatchSize: 4, Seed: 1},
		StreamWindow: 16,
		Journal:      j1,
	}
	if _, err := Run(context.Background(), cfg, client, ta, tb); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	j2, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cfg.Journal = j2
	cfg.Matcher.Seed = 2 // different run, same journal
	if _, err := Run(context.Background(), cfg, client, ta, tb); !errors.Is(err, runstore.ErrRunMismatch) {
		t.Errorf("mismatched resume error = %v, want ErrRunMismatch", err)
	}
}

// vocabWords builds a deterministic n-word vocabulary.
func vocabWords(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%03d", i)
	}
	return out
}
