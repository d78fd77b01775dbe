package pipeline

import (
	"context"
	"fmt"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/entity"
	"batcher/internal/llm"
)

// syntheticTables builds two n-row tables where row i of A shares exactly
// two tokens with row i of B and at most one token with any other row,
// so a MinShared-2 token blocker yields exactly the diagonal.
func syntheticTables(n int) ([]entity.Record, []entity.Record) {
	ta := make([]entity.Record, 0, n)
	tb := make([]entity.Record, 0, n)
	for i := 0; i < n; i++ {
		title := fmt.Sprintf("k%d c%d", i, i%97)
		ta = append(ta, entity.NewRecord(fmt.Sprintf("a%d", i), []string{"title"}, []string{title}))
		tb = append(tb, entity.NewRecord(fmt.Sprintf("b%d", i), []string{"title"}, []string{title}))
	}
	return ta, tb
}

// fastMatcher is a cheap deterministic matcher config for large runs.
func fastMatcher() core.Config {
	return core.Config{Batching: core.RandomBatching, Selection: core.FixedSelection, Seed: 1}
}

// runBoundedBuffer pins the memory bound of a streamed run: with K
// windows in flight the stages never hold more than K windows' worth of
// admitted candidates between them (the window the producer is filling
// is the +1 on top), every candidate is still predicted, and
// Progress.InFlight stays within [0, K] — exactly 0 at K = 1.
func runBoundedBuffer(t *testing.T, n, window, k int) {
	ta, tb := syntheticTables(n)
	badInFlight := -1
	rep, err := Run(context.Background(), Config{
		Blocker:         &blocking.TokenBlocker{Attr: "title", MinShared: 2},
		Matcher:         fastMatcher(),
		StreamWindow:    window,
		InFlightWindows: k,
		Progress: func(p Progress) {
			if p.InFlight < 0 || p.InFlight > k-1 {
				badInFlight = p.InFlight
			}
		},
	}, llm.NewSimulated(nil, 1), ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != n {
		t.Fatalf("Candidates = %d, want %d", rep.Candidates, n)
	}
	if rep.PeakBuffered > k*window {
		t.Fatalf("PeakBuffered = %d, exceeds K*window = %d", rep.PeakBuffered, k*window)
	}
	if wantWindows := (n + window - 1) / window; rep.Windows != wantWindows {
		t.Errorf("Windows = %d, want %d", rep.Windows, wantWindows)
	}
	if badInFlight >= 0 {
		t.Errorf("InFlight = %d outside [0, %d]", badInFlight, k-1)
	}
	if len(rep.Result.Pred) != n {
		t.Errorf("aggregate Pred covers %d of %d candidates", len(rep.Result.Pred), n)
	}
	if rep.Result.Ledger.Calls() == 0 {
		t.Error("no LLM calls recorded")
	}
}

// A 10k x 10k blocking run with a 256-pair window, one window at a time.
func TestRunStreamWindowBoundedBuffer(t *testing.T) { runBoundedBuffer(t, 10000, 256, 1) }

func TestRunPipelinedBoundedBuffer(t *testing.T) { runBoundedBuffer(t, 4000, 128, 4) }

// TestRunWindowedCandidateOrder verifies a windowed run feeds OnPair
// every candidate in exactly the blocker's Block order, and that Matches
// agrees with the aggregate predictions.
func TestRunWindowedCandidateOrder(t *testing.T) {
	d, ta, tb := benchTables(t)
	blocker := &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2}
	want := blocker.Block(ta, tb)
	if len(want) < 10 {
		t.Fatalf("workload too small: %d candidates", len(want))
	}
	split := entity.SplitPairs(d.Pairs)
	client := llm.NewSimulated(llm.BuildOracle(d.Pairs), 1)
	var got []entity.Pair
	var preds []entity.Label
	rep, err := Run(context.Background(), Config{
		Blocker:      blocker,
		Pool:         split.Train,
		Matcher:      fastMatcher(),
		StreamWindow: 7, // deliberately unaligned with the candidate count
		OnPair: func(p entity.Pair, l entity.Label) {
			got = append(got, p)
			preds = append(preds, l)
		},
	}, client, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("OnPair saw %d candidates, Block produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("candidate %d = %s, want %s", i, got[i].Key(), want[i].Key())
		}
		if preds[i] != rep.Result.Pred[i] {
			t.Fatalf("OnPair label %d = %v, aggregate %v", i, preds[i], rep.Result.Pred[i])
		}
	}
	matches := 0
	for _, l := range rep.Result.Pred {
		if l == entity.Match {
			matches++
		}
	}
	if matches != len(rep.Matches) {
		t.Errorf("Matches = %d, aggregate Match preds = %d", len(rep.Matches), matches)
	}
}

// TestRunCollectedMatchesManualPipeline pins the single-window shape:
// with StreamWindow zero, Run must equal blocking then one matcher
// resolution by hand — the paper's collect-then-match semantics. The
// report carries the fold aggregate, so the window-local Batches,
// BatchMargins and LabeledPool stay nil as for any other StreamWindow.
func TestRunCollectedMatchesManualPipeline(t *testing.T) {
	d, ta, tb := benchTables(t)
	blocker := &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2}
	split := entity.SplitPairs(d.Pairs)
	mcfg := fastMatcher()

	candidates := blocker.Block(ta, tb)
	manual, err := core.NewFromConfig(llm.NewSimulated(llm.BuildOracle(d.Pairs), 1), mcfg).
		Resolve(context.Background(), candidates, split.Train)
	if err != nil {
		t.Fatal(err)
	}

	var onPair int
	rep, err := Run(context.Background(), Config{
		Blocker: blocker,
		Pool:    split.Train,
		Matcher: mcfg,
		OnPair:  func(entity.Pair, entity.Label) { onPair++ },
	}, llm.NewSimulated(llm.BuildOracle(d.Pairs), 1), ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != len(candidates) {
		t.Fatalf("Candidates = %d, want %d", rep.Candidates, len(candidates))
	}
	if len(rep.Result.Pred) != len(manual.Pred) {
		t.Fatalf("Pred length %d, want %d", len(rep.Result.Pred), len(manual.Pred))
	}
	for i := range manual.Pred {
		if rep.Result.Pred[i] != manual.Pred[i] {
			t.Fatalf("Pred[%d] = %v, manual %v", i, rep.Result.Pred[i], manual.Pred[i])
		}
	}
	if rep.Result.Ledger.Total() != manual.Ledger.Total() {
		t.Errorf("ledger %v, manual %v", rep.Result.Ledger.Total(), manual.Ledger.Total())
	}
	if onPair != len(candidates) {
		t.Errorf("OnPair called %d times, want %d", onPair, len(candidates))
	}
	if rep.Windows != 1 || rep.WindowsTotal != 1 || rep.PeakBuffered != len(candidates) {
		t.Errorf("collected mode Windows = %d of %d, PeakBuffered = %d", rep.Windows, rep.WindowsTotal, rep.PeakBuffered)
	}
	if rep.Result.DemosLabeled != manual.DemosLabeled || rep.Result.PromptTokens != manual.PromptTokens {
		t.Errorf("labeled/prompt tokens = %d/%d, manual %d/%d",
			rep.Result.DemosLabeled, rep.Result.PromptTokens, manual.DemosLabeled, manual.PromptTokens)
	}
	if rep.Result.Batches != nil || rep.Result.BatchMargins != nil || rep.Result.LabeledPool != nil {
		t.Error("pipeline report leaked window-local batch state")
	}
}

// TestRunWindowedMaxCandidatesTripsIncrementally runs a deliberately
// quadratic blocking configuration under a small cap: for every window
// shape the guard must abort generation rather than materialize the
// cross product, report the same single-prefix error, and hand back
// exactly the windows that were complete when it tripped — none when
// everything is one window.
func TestRunWindowedMaxCandidatesTripsIncrementally(t *testing.T) {
	const n = 400 // full cross product would be 160k pairs
	const limit = 300
	ta := make([]entity.Record, 0, n)
	tb := make([]entity.Record, 0, n)
	for i := 0; i < n; i++ {
		ta = append(ta, entity.NewRecord(fmt.Sprintf("a%d", i), []string{"t"}, []string{"same token"}))
		tb = append(tb, entity.NewRecord(fmt.Sprintf("b%d", i), []string{"t"}, []string{"same token"}))
	}
	for _, sh := range []struct{ w, k, candidates, windows int }{
		{0, 0, 0, 0},
		{64, 1, 256, 4},
		{64, 3, 256, 4},
	} {
		t.Run(fmt.Sprintf("w%d_k%d", sh.w, sh.k), func(t *testing.T) {
			blocked := 0
			rep, err := Run(context.Background(), Config{
				Blocker:         &blocking.TokenBlocker{Attr: "t", MinShared: 1},
				Matcher:         fastMatcher(),
				StreamWindow:    sh.w,
				InFlightWindows: sh.k,
				MaxCandidates:   limit,
				Progress:        func(p Progress) { blocked = p.Blocked },
			}, llm.NewSimulated(nil, 1), ta, tb)
			if want := "pipeline: blocking exceeded the 300-candidate cap"; err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
			if blocked > limit+1 {
				t.Errorf("generation ran on to %d candidates past a cap of %d", blocked, limit)
			}
			if sh.windows == 0 {
				if rep != nil {
					t.Fatalf("report = %+v, want nil when no window committed", rep)
				}
				return
			}
			if rep == nil {
				t.Fatal("committed windows discarded on the cap trip")
			}
			if rep.Candidates != sh.candidates || rep.Windows != sh.windows || rep.WindowsTotal != 0 {
				t.Errorf("partial report = %d candidates, %d windows (total %d), want %d, %d (total 0)",
					rep.Candidates, rep.Windows, rep.WindowsTotal, sh.candidates, sh.windows)
			}
			if len(rep.Result.Pred) != sh.candidates || rep.Result.Ledger.Calls() == 0 {
				t.Errorf("partial result covers %d pairs with %d calls", len(rep.Result.Pred), rep.Result.Ledger.Calls())
			}
		})
	}
}

// TestRunWindowedCancel cancels the run after the first window; the
// pipeline must stop with an error instead of matching everything.
func TestRunWindowedCancel(t *testing.T) {
	ta, tb := syntheticTables(600)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	windows := 0
	_, err := Run(ctx, Config{
		Blocker:      &blocking.TokenBlocker{Attr: "title", MinShared: 2},
		Matcher:      fastMatcher(),
		StreamWindow: 50,
		Progress: func(p Progress) {
			if p.Windows >= 1 {
				cancel()
			}
			windows = p.Windows
		},
	}, llm.NewSimulated(nil, 1), ta, tb)
	if err == nil {
		t.Fatal("cancelled windowed run finished cleanly")
	}
	if windows >= 12 {
		t.Errorf("cancellation was ignored: %d windows completed", windows)
	}
}

// TestRunWindowedProgress checks the progress stream of every window
// shape: a setup snapshot, one per committed window and a final one;
// monotone counts; a terminal BlockingDone snapshot; and API spend once
// calls happen.
func TestRunWindowedProgress(t *testing.T) {
	ta, tb := syntheticTables(300)
	for _, sh := range []struct{ w, k int }{{0, 0}, {64, 1}, {64, 3}} {
		t.Run(fmt.Sprintf("w%d_k%d", sh.w, sh.k), func(t *testing.T) {
			var snaps []Progress
			rep, err := Run(context.Background(), Config{
				Blocker:         &blocking.TokenBlocker{Attr: "title", MinShared: 2},
				Matcher:         fastMatcher(),
				StreamWindow:    sh.w,
				InFlightWindows: sh.k,
				Progress:        func(p Progress) { snaps = append(snaps, p) },
			}, llm.NewSimulated(nil, 1), ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) != rep.Windows+2 {
				t.Fatalf("%d snapshots for %d windows, want setup + one per window + final", len(snaps), rep.Windows)
			}
			if first := snaps[0]; first.Matched != 0 || first.Windows != 0 {
				t.Errorf("setup snapshot = %+v", first)
			}
			last := snaps[len(snaps)-1]
			if !last.BlockingDone || last.Matched != rep.Candidates || last.Windows != rep.Windows {
				t.Errorf("terminal snapshot = %+v, report = %d candidates %d windows", last, rep.Candidates, rep.Windows)
			}
			if last.APIUSD <= 0 {
				t.Error("no API spend reported")
			}
			for i := 1; i < len(snaps); i++ {
				if snaps[i].Matched < snaps[i-1].Matched || snaps[i].Windows < snaps[i-1].Windows {
					t.Fatalf("progress went backwards: %+v -> %+v", snaps[i-1], snaps[i])
				}
			}
		})
	}
}

// runPartialReport cancels after the second committed window and
// expects the partial report back with the error: the committed prefix
// — predictions, billed spend, and OnPair coverage — all consistent,
// whether one window or several were in flight at the cancel.
func runPartialReport(t *testing.T, k int) {
	ta, tb := syntheticTables(600)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted int
	rep, err := Run(ctx, Config{
		Blocker:         &blocking.TokenBlocker{Attr: "title", MinShared: 2},
		Matcher:         fastMatcher(),
		StreamWindow:    50,
		InFlightWindows: k,
		OnPair:          func(entity.Pair, entity.Label) { emitted++ },
		Progress: func(p Progress) {
			if p.Windows == 2 {
				cancel()
			}
		},
	}, llm.NewSimulated(nil, 1), ta, tb)
	if err == nil {
		t.Fatal("cancelled run reported no error")
	}
	if rep == nil {
		t.Fatal("partial report discarded on mid-run failure")
	}
	if rep.Result.Ledger.Calls() == 0 {
		t.Error("partial ledger lost the billed calls")
	}
	if rep.Candidates == 0 || rep.Candidates != len(rep.Result.Pred) {
		t.Errorf("partial report has %d candidates, %d predictions", rep.Candidates, len(rep.Result.Pred))
	}
	if emitted != rep.Candidates {
		t.Errorf("OnPair saw %d pairs, report has %d", emitted, rep.Candidates)
	}
	if rep.Windows < 2 || rep.Windows >= 12 || rep.WindowsTotal != 0 {
		t.Errorf("partial report counts %d windows (total %d) of a 12-window stream cancelled after 2", rep.Windows, rep.WindowsTotal)
	}
}

func TestRunWindowedPartialReport(t *testing.T)  { runPartialReport(t, 1) }
func TestRunPipelinedPartialReport(t *testing.T) { runPartialReport(t, 3) }

// hookClient runs a callback before delegating each completion.
type hookClient struct {
	inner  llm.Client
	before func()
}

func (h hookClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	h.before()
	return h.inner.Complete(ctx, req)
}

// TestRunCollectedPartialReport does the same for a single-window run:
// a cancellation mid-matching must surface the partial result, ledger,
// and the full candidate row set (unanswered pairs as Unknown). The
// failed window is folded and emitted but not counted as committed.
func TestRunCollectedPartialReport(t *testing.T) {
	ta, tb := syntheticTables(600)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	client := hookClient{inner: llm.NewSimulated(nil, 1), before: func() {
		calls++
		if calls == 10 {
			cancel()
		}
	}}
	var emitted, unknown int
	rep, err := Run(ctx, Config{
		Blocker: &blocking.TokenBlocker{Attr: "title", MinShared: 2},
		Matcher: fastMatcher(),
		OnPair: func(_ entity.Pair, l entity.Label) {
			emitted++
			if l == entity.Unknown {
				unknown++
			}
		},
	}, client, ta, tb)
	if err == nil {
		t.Fatal("cancelled run reported no error")
	}
	if rep == nil {
		t.Fatal("partial report discarded in collected mode")
	}
	if rep.Result.Ledger.Calls() == 0 {
		t.Error("partial ledger lost the billed calls")
	}
	if emitted != rep.Candidates {
		t.Errorf("OnPair saw %d of %d candidates", emitted, rep.Candidates)
	}
	if unknown == 0 || unknown == rep.Candidates {
		t.Errorf("partial run answered %d of %d candidates; expected a strict subset",
			rep.Candidates-unknown, rep.Candidates)
	}
	if rep.Candidates != 600 || rep.Windows != 0 || rep.PeakBuffered != 600 {
		t.Errorf("partial report = %d candidates, %d windows, %d buffered; want 600, 0, 600",
			rep.Candidates, rep.Windows, rep.PeakBuffered)
	}
}

// TestRunWindowedSharedPoolLabelsOnce guards labeling economics: with a
// shared pool, a pool pair annotated by several windows must be billed
// exactly once, so the aggregate label count can never exceed the pool.
func TestRunWindowedSharedPoolLabelsOnce(t *testing.T) {
	d, ta, tb := benchTables(t)
	split := entity.SplitPairs(d.Pairs)
	pool := split.Train
	client := llm.NewSimulated(llm.BuildOracle(d.Pairs), 1)
	cfg := Config{
		Blocker: &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
		Pool:    pool,
		Matcher: fastMatcher(),
	}
	base, err := Run(context.Background(), cfg, client, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := cfg
	wcfg.StreamWindow = 8
	win, err := Run(context.Background(), wcfg, client, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if win.Result.DemosLabeled > len(pool) {
		t.Fatalf("windowed run billed %d labels from a %d-pair pool", win.Result.DemosLabeled, len(pool))
	}
	if win.Result.Ledger.LabeledPairs() != win.Result.DemosLabeled {
		t.Errorf("ledger bills %d labels, result says %d",
			win.Result.Ledger.LabeledPairs(), win.Result.DemosLabeled)
	}
	// Windowed selection can need somewhat more distinct demos than one
	// global resolution, but re-billing per window would multiply the
	// count by the window count; distinct-billing keeps it the same
	// order of magnitude.
	if win.Windows >= 4 && win.Result.DemosLabeled >= base.Result.DemosLabeled*win.Windows/2 {
		t.Errorf("windowed labels %d vs unwindowed %d across %d windows: looks re-billed",
			win.Result.DemosLabeled, base.Result.DemosLabeled, win.Windows)
	}
}

// TestRunWindowedEmpty keeps the zero-candidate path sane with a
// window size set.
func TestRunWindowedEmpty(t *testing.T) {
	rep, err := Run(context.Background(), Config{StreamWindow: 16}, llm.NewSimulated(nil, 1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 0 || rep.Windows != 0 || len(rep.Result.Pred) != 0 {
		t.Errorf("empty windowed run = %+v", rep)
	}
}

// TestRunWindowedPool uses an explicit labeled pool across windows and
// expects true matches to surface, as with a single window.
func TestRunWindowedPool(t *testing.T) {
	d, ta, tb := benchTables(t)
	split := entity.SplitPairs(d.Pairs)
	client := llm.NewSimulated(llm.BuildOracle(d.Pairs), 1)
	rep, err := Run(context.Background(), Config{
		Blocker:      &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
		Pool:         split.Train,
		StreamWindow: 16,
	}, client, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	gold := map[string]bool{}
	for _, p := range d.Pairs {
		if p.Truth == entity.Match {
			gold[p.Key()] = true
		}
	}
	found := 0
	for _, m := range rep.Matches {
		if gold[m.IDA+"|"+m.IDB] {
			found++
		}
	}
	if found == 0 {
		t.Error("windowed pipeline found no true matches")
	}
}
