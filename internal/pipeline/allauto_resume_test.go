package pipeline

import (
	"context"
	"math"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/llm"
	"batcher/internal/runstore"
)

// TestResumeAllAutoResolvedRun pins the resume-from-disk behavior of a
// run the pre-filter resolved entirely: the journal holds windows of
// size zero (no batches) plus the terminal record, and a second process
// resuming over it must reproduce the run — same predictions, same
// auto-resolved count, zero LLM calls, no duplicate or out-of-order
// journal appends — for every shape of the executor.
func TestResumeAllAutoResolvedRun(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:90], d.TableB[:90]
	pf := beerPrefilter(t, d).WithThresholds(0.5, math.Nextafter(0.5, 0))
	cases := []struct {
		name         string
		streamWindow int
		inFlight     int
	}{
		{"collected", 0, 0},
		{"windowed", 16, 0},
		{"pipelined", 16, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			jdir := t.TempDir()
			newCfg := func(j *runstore.Journal) Config {
				return Config{
					Blocker:         &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
					Matcher:         core.Config{BatchSize: 4, Seed: 1},
					StreamWindow:    tc.streamWindow,
					InFlightWindows: tc.inFlight,
					Prefilter:       pf,
					Journal:         j,
				}
			}
			backend := &countingClient{inner: llm.NewSimulated(llm.BuildOracle(d.Pairs), 1)}

			j1, err := runstore.OpenJournal(ctx, jdir)
			if err != nil {
				t.Fatal(err)
			}
			first, err := Run(ctx, newCfg(j1), backend, ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			if err := j1.Close(); err != nil {
				t.Fatal(err)
			}
			if first.AutoResolved != first.Candidates || first.Candidates == 0 {
				t.Fatalf("want every candidate auto-resolved, got %d of %d",
					first.AutoResolved, first.Candidates)
			}
			if backend.Calls() != 0 {
				t.Fatalf("all-auto run reached the backend %d times", backend.Calls())
			}

			// Second process: reopen the finished journal from disk and run
			// again over it. Nothing was ever journaled per pair (all
			// windows are empty), so this exercises the size-zero window
			// path end to end: re-appended WindowStarts must be absorbed
			// idempotently and the terminal record must not double-fire.
			j2, err := runstore.OpenJournal(ctx, jdir)
			if err != nil {
				t.Fatal(err)
			}
			if done, ok := j2.State().Done(); !ok {
				t.Fatal("first run left no terminal record")
			} else if done.Owned != first.Windows || done.Windows != first.Windows {
				t.Fatalf("terminal record owns %d of %d windows, report says %d", done.Owned, done.Windows, first.Windows)
			}
			second, err := Run(ctx, newCfg(j2), backend, ta, tb)
			if err != nil {
				t.Fatalf("resume of all-auto run failed: %v", err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			if backend.Calls() != 0 {
				t.Fatalf("resume reached the backend %d times", backend.Calls())
			}
			predsEqual(t, tc.name, second.Result.Pred, first.Result.Pred)
			if second.AutoResolved != first.AutoResolved || second.Candidates != first.Candidates {
				t.Fatalf("resume routed differently: %d/%d vs %d/%d",
					second.AutoResolved, second.Candidates, first.AutoResolved, first.Candidates)
			}
			if second.Windows != first.Windows {
				t.Fatalf("resume saw %d windows, first run %d", second.Windows, first.Windows)
			}
			if api := second.Result.Ledger.API(); api != 0 {
				t.Fatalf("all-auto resume billed $%v", api)
			}
		})
	}
}
