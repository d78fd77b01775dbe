package core

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/llm"
)

func TestParallelMatchesSequential(t *testing.T) {
	questions, pool := testWorkload(t, "IA", 64)
	run := func(parallelism int) *Result {
		client := newSimClient(questions, pool, 9)
		cfg := Config{Batching: DiversityBatching, Selection: CoveringSelection, Seed: 9, Parallelism: parallelism}
		f := NewFromConfig(client, cfg)
		res, err := f.Resolve(context.Background(), questions, pool)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(4)
	// The simulator is deterministic per request, batching is seed-driven,
	// and parallel workers own disjoint batches — so results must be
	// byte-identical.
	for i := range seq.Pred {
		if seq.Pred[i] != par.Pred[i] {
			t.Fatalf("prediction %d differs between sequential and parallel", i)
		}
	}
	if seq.Ledger.API() != par.Ledger.API() {
		t.Errorf("API cost differs: %v vs %v", seq.Ledger.API(), par.Ledger.API())
	}
	if seq.Ledger.LabeledPairs() != par.Ledger.LabeledPairs() {
		t.Errorf("labels differ: %d vs %d", seq.Ledger.LabeledPairs(), par.Ledger.LabeledPairs())
	}
}

func TestParallelWithRaceDetector(t *testing.T) {
	// Exercised under -race in CI; small workload, high parallelism.
	questions, pool := testWorkload(t, "Beer", 48)
	client := newSimClient(questions, pool, 2)
	f := NewFromConfig(client, Config{Selection: FixedSelection, Seed: 2, Parallelism: 8})
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	for _, p := range res.Pred {
		if p != entity.Unknown {
			answered++
		}
	}
	if answered == 0 {
		t.Error("no answers under parallel execution")
	}
}

func TestParallelDefaultsToSequential(t *testing.T) {
	f := NewFromConfig(llm.NewSimulated(nil, 1), Config{})
	if f.Config().Parallelism != 1 {
		t.Errorf("default parallelism = %d, want 1", f.Config().Parallelism)
	}
}

// TestNoHeadOfLineBlocking: with batch 0's call parked, the other worker
// parks each result it finishes and claims again, so every remaining
// batch completes before batch 0 does — and delivery is still 0, 1, 2, ….
func TestNoHeadOfLineBlocking(t *testing.T) {
	prep, c := newEngineRun(t, 2)
	n := len(prep.Batches())
	release := c.holdBatches(1)
	st := prep.Start(context.Background())
	delivered := drainAsync(st)
	if got := await(c.ended, n-1); !slices.Equal(got, ascending(n)[1:]) {
		t.Fatalf("completed behind the parked batch 0: %v, want every other batch", got)
	}
	release(0)
	if got := <-delivered; !slices.Equal(got, ascending(n)) {
		t.Errorf("delivered %v, want ascending order", got)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRunGoroutineBudget: the calling goroutine is one of Run's workers,
// so with every worker parked inside a call Run has added
// min(Parallelism, batches) − 1 goroutines, and Resolve at Parallelism 1
// runs every call on its caller's goroutine and starts none. Goroutines
// are attributed by the creator recorded in their stack: the runtime's
// transient goroutines, other tests' stragglers and Prepare's
// workpool.For workers still returning from wg.Done — all of which a bare
// runtime.NumGoroutine picks up now and then — do not count.
func TestRunGoroutineBudget(t *testing.T) {
	for _, parallelism := range []int{1, 2, 4, 64} {
		t.Run(fmt.Sprintf("parallelism %d", parallelism), func(t *testing.T) {
			prep, c := newEngineRun(t, parallelism)
			workers := min(parallelism, len(prep.Batches()))
			release := c.holdBatches(workers)
			caller := goroutineID()
			parked := make(chan int, 1)
			go func() {
				await(c.started, workers)
				parked <- spawnedFrom(caller) - 1 // this observer is the caller's too
				for bi := range workers {
					release(bi)
				}
			}()
			delivered := 0
			if err := prep.Run(context.Background(), func(BatchResult) { delivered++ }); err != nil {
				t.Fatal(err)
			}
			if added := <-parked; added != workers-1 {
				t.Errorf("Run added %d goroutines with all %d workers parked, want %d", added, workers, workers-1)
			}
			if delivered != len(prep.Batches()) {
				t.Errorf("delivered %d of %d batches", delivered, len(prep.Batches()))
			}
		})
	}
	t.Run("Resolve at parallelism 1", func(t *testing.T) {
		questions, pool := testWorkload(t, "Beer", 40)
		client := &goroutineWitness{inner: newSimClient(questions, pool, 1), caller: goroutineID()}
		if _, err := NewFromConfig(client, Config{Seed: 1}).Resolve(context.Background(), questions, pool); err != nil {
			t.Fatal(err)
		}
		if client.calls < 2 {
			t.Fatalf("%d calls, want several", client.calls)
		}
		if client.elsewhere != 0 || client.spawned != 0 {
			t.Errorf("of %d calls %d ran off Resolve's goroutine, which had started %d goroutines; want 0 and 0",
				client.calls, client.elsewhere, client.spawned)
		}
	})
}

// goroutineID returns the calling goroutine's id as its stack header
// ("goroutine 12 [running]:") prints it.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// spawnedFrom counts the live goroutines that this package's code started
// from goroutine id: every stack ends in "created by pkg.Func in
// goroutine 12".
func spawnedFrom(id string) int {
	buf := make([]byte, 1<<20)
	created := regexp.MustCompile(`created by batcher/internal/core\.\S+ in goroutine ` + id + "\n")
	return len(created.FindAll(buf[:runtime.Stack(buf, true)], -1))
}

// goroutineWitness counts the calls that did not run on the caller's
// goroutine and the goroutines the caller had started by then. It is not
// synchronised: the run under test must call from one goroutine.
type goroutineWitness struct {
	inner                     llm.Client
	caller                    string
	calls, elsewhere, spawned int
}

func (g *goroutineWitness) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	g.calls++
	if goroutineID() != g.caller {
		g.elsewhere++
	}
	g.spawned += spawnedFrom(g.caller)
	return g.inner.Complete(ctx, req)
}
