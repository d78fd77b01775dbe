package pipeline

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
)

// runCapture is everything the executor's determinism contract covers:
// the report, the exact OnPair invocation sequence, and the
// deterministic fields of every Progress snapshot (Blocked and InFlight
// are timing-dependent by design and excluded).
type runCapture struct {
	rep     *Report
	pairSeq []string
	progSeq []string
}

// capture runs cfg with both hooks recording. Dollars are recorded as
// float bits, so a changed fold order shows even when the sum rounds to
// the same cent. The formats feed testdata/executor_golden.json's
// digests and must not change.
func capture(cfg Config, client llm.Client, ta, tb []entity.Record) (runCapture, error) {
	var c runCapture
	cfg.OnPair = func(p entity.Pair, l entity.Label) {
		c.pairSeq = append(c.pairSeq, fmt.Sprintf("%s=%d", p.Key(), l))
	}
	cfg.Progress = func(p Progress) {
		c.progSeq = append(c.progSeq, fmt.Sprintf("m%d r%d w%d d%d $%016x",
			p.Matched, p.Replayed, p.Windows, p.Degraded, math.Float64bits(p.APIUSD)))
	}
	var err error
	c.rep, err = Run(context.Background(), cfg, client, ta, tb)
	return c, err
}

func captureRun(t *testing.T, cfg Config, client llm.Client, ta, tb []entity.Record) runCapture {
	t.Helper()
	c, err := capture(cfg, client, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// journalBytes concatenates a run directory's journal segments in
// segment order — the byte-exact durable record of the run.
func journalBytes(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, e := range entries { // ReadDir sorts by name = segment order
		if !strings.HasPrefix(e.Name(), "journal-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(data)
	}
	return sb.String()
}

// TestRunPipelinedMatchesSequential is the ordered committer's
// property: for any InFlightWindows K > 1 a run must produce
// byte-identical outputs to the K = 1 run — predictions, matches, ledger
// totals, OnPair sequence, deterministic Progress fields, and the
// journal's exact bytes on disk. Concurrency may only change wall-clock
// time.
func TestRunPipelinedMatchesSequential(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:90], d.TableB[:90]
	oracle := llm.BuildOracle(d.Pairs)
	variants := []struct {
		name        string
		sharedPool  bool
		parallelism int
	}{
		{name: "self_pooled"},
		{name: "shared_pool", sharedPool: true},
		{name: "parallel_batches", parallelism: 3},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			// run executes one journaled run at K windows in flight. The
			// journaled fingerprint includes the creation time, which
			// Compatible ignores; pre-stamped journals make the full
			// journals byte-comparable.
			run := func(t *testing.T, k int) (runCapture, string) {
				cfg := Config{
					Blocker:         &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
					Matcher:         core.Config{BatchSize: 4, Seed: 1, Parallelism: v.parallelism},
					StreamWindow:    16,
					InFlightWindows: k,
				}
				if v.sharedPool {
					cfg.Pool = entity.SplitPairs(d.Pairs).Train
				}
				dir := filepath.Join(t.TempDir(), "run")
				cfg.Journal = openStampedJournal(t, dir, cfg, ta, tb)
				c := captureRun(t, cfg, llm.NewSimulated(oracle, 1), ta, tb)
				if err := cfg.Journal.Close(); err != nil {
					t.Fatal(err)
				}
				return c, journalBytes(t, dir)
			}
			base, baseBytes := run(t, 1)
			if base.rep.Windows < 8 {
				t.Fatalf("want a many-window run, got %d windows", base.rep.Windows)
			}

			for _, k := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
					got, gotBytes := run(t, k)

					predsEqual(t, "pipelined", got.rep.Result.Pred, base.rep.Result.Pred)
					if len(got.rep.Matches) != len(base.rep.Matches) {
						t.Errorf("matches = %d, want %d", len(got.rep.Matches), len(base.rep.Matches))
					}
					ledgerEqual(t, "pipelined", &got.rep.Result.Ledger, &base.rep.Result.Ledger)
					if got.rep.Result.PromptTokens != base.rep.Result.PromptTokens {
						t.Errorf("prompt tokens = %d, want %d", got.rep.Result.PromptTokens, base.rep.Result.PromptTokens)
					}
					if got.rep.Result.Ledger.LabeledPairs() != base.rep.Result.Ledger.LabeledPairs() {
						t.Errorf("demos labeled = %d, want %d", got.rep.Result.Ledger.LabeledPairs(), base.rep.Result.Ledger.LabeledPairs())
					}
					if got.rep.Candidates != base.rep.Candidates || got.rep.Windows != base.rep.Windows {
						t.Errorf("candidates/windows = %d/%d, want %d/%d",
							got.rep.Candidates, got.rep.Windows, base.rep.Candidates, base.rep.Windows)
					}
					if len(got.pairSeq) != len(base.pairSeq) {
						t.Fatalf("OnPair fired %d times, want %d", len(got.pairSeq), len(base.pairSeq))
					}
					for i := range base.pairSeq {
						if got.pairSeq[i] != base.pairSeq[i] {
							t.Fatalf("OnPair[%d] = %s, want %s", i, got.pairSeq[i], base.pairSeq[i])
						}
					}
					if len(got.progSeq) != len(base.progSeq) {
						t.Fatalf("Progress fired %d times, want %d", len(got.progSeq), len(base.progSeq))
					}
					for i := range base.progSeq {
						if got.progSeq[i] != base.progSeq[i] {
							t.Fatalf("Progress[%d] = %s, want %s", i, got.progSeq[i], base.progSeq[i])
						}
					}
					if gotBytes != baseBytes {
						t.Errorf("journal bytes differ from the K = 1 run (%d vs %d bytes)", len(gotBytes), len(baseBytes))
					}
				})
			}
		})
	}
}

// latencyClient delays every call by d before forwarding it, standing
// in for a remote backend's round trip: the simulator alone answers in
// microseconds, which hides the latency in-flight windows overlap.
type latencyClient struct {
	inner llm.Client
	d     time.Duration
}

func (c latencyClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	t := time.NewTimer(c.d)
	defer t.Stop()
	select {
	case <-t.C:
		return c.inner.Complete(ctx, req)
	case <-ctx.Done():
		return llm.Response{}, ctx.Err()
	}
}

// BenchmarkPipelineInFlight measures the pipelining win under a small
// simulated LLM latency: K=4 should overlap most of the per-window call
// latency that K=1 pays serially. CI runs it with -benchtime=1x as a
// race-enabled smoke; the benchmark module's latency_overlap workload
// (bash benchmark/run.sh) carries the end-to-end number.
func BenchmarkPipelineInFlight(b *testing.B) {
	ta, tb := syntheticTables(512)
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("inflight_%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				client := latencyClient{inner: llm.NewSimulated(nil, 1), d: 2 * time.Millisecond}
				rep, err := Run(context.Background(), Config{
					Blocker:         &blocking.TokenBlocker{Attr: "title", MinShared: 2},
					Matcher:         fastMatcher(),
					StreamWindow:    64,
					InFlightWindows: k,
				}, client, ta, tb)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Candidates != 512 {
					b.Fatalf("candidates = %d", rep.Candidates)
				}
			}
		})
	}
}
