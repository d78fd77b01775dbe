package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batcher/internal/entity"
	"batcher/internal/llm"
)

// gatedClient delegates to inner but parks the gateAt-th call until the
// gate channel is closed, letting tests observe a stream mid-run.
type gatedClient struct {
	inner  llm.Client
	calls  atomic.Int32
	gateAt int32
	gate   chan struct{}
}

func (g *gatedClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if g.calls.Add(1) == g.gateAt {
		<-g.gate
	}
	return g.inner.Complete(ctx, req)
}

func TestResolveStreamYieldsBeforeRunFinishes(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 40)
	client := &gatedClient{inner: newSimClient(questions, pool, 1), gateAt: 2, gate: make(chan struct{})}
	f := NewFromConfig(client, Config{Batching: DiversityBatching, Selection: CoveringSelection, Seed: 1})
	prep, err := f.Prepare(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	st := prep.Start(context.Background())
	if len(st.Batches()) < 2 {
		t.Fatalf("workload produced %d batches, need >= 2", len(st.Batches()))
	}
	got := 0
	prev := -1
	for br := range st.All() {
		if got == 0 {
			// The second LLM call is parked, so receiving the first batch
			// here proves the stream yields incrementally rather than
			// materializing the whole run.
			if br.Index != 0 {
				t.Errorf("first batch index = %d, want 0", br.Index)
			}
			if done := int(client.calls.Load()); done >= len(st.Batches()) {
				t.Errorf("full run finished (%d calls) before first yield was consumed", done)
			}
			if br.Ledger.Calls() != 1 || br.Ledger.InputTokens() <= 0 {
				t.Errorf("batch delta malformed: calls=%d inTokens=%d", br.Ledger.Calls(), br.Ledger.InputTokens())
			}
			close(client.gate)
		}
		got++
		if br.Index != prev+1 {
			t.Errorf("batch order broken: %d after %d", br.Index, prev)
		}
		prev = br.Index
		if len(br.Pred) != len(br.Questions) {
			t.Errorf("batch %d: %d preds for %d questions", br.Index, len(br.Pred), len(br.Questions))
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if got != len(st.Batches()) {
		t.Errorf("yielded %d of %d batches", got, len(st.Batches()))
	}
}

func TestResolveStreamParallelDeterministicOrder(t *testing.T) {
	questions, pool := testWorkload(t, "IA", 64)
	run := func(parallelism int) ([]int, []entity.Label) {
		client := newSimClient(questions, pool, 9)
		f := NewFromConfig(client, Config{
			Batching: DiversityBatching, Selection: CoveringSelection,
			Seed: 9, Parallelism: parallelism,
		})
		prep, err := f.Prepare(context.Background(), questions, pool)
		if err != nil {
			t.Fatal(err)
		}
		st := prep.Start(context.Background())
		var order []int
		pred := make([]entity.Label, len(questions))
		for br := range st.All() {
			order = append(order, br.Index)
			for i, qi := range br.Questions {
				pred[qi] = br.Pred[i]
			}
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		return order, pred
	}
	seqOrder, seqPred := run(1)
	parOrder, parPred := run(6)
	for i := range seqOrder {
		if seqOrder[i] != i {
			t.Fatalf("sequential order[%d] = %d", i, seqOrder[i])
		}
	}
	if !reflect.DeepEqual(seqOrder, parOrder) {
		t.Errorf("parallel emission order differs: %v vs %v", parOrder, seqOrder)
	}
	if !reflect.DeepEqual(seqPred, parPred) {
		t.Error("parallel predictions differ from sequential")
	}
}

// cancellingClient cancels the bound context after `after` successful
// completions, simulating a caller that gives up mid-run. The count and
// the cancel share one lock, so no later completion returns before the
// context is cancelled.
type cancellingClient struct {
	inner  llm.Client
	cancel context.CancelFunc
	mu     sync.Mutex
	calls  int32
	after  int32
}

func (c *cancellingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	resp, err := c.inner.Complete(ctx, req)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls++; c.calls == c.after {
		c.cancel()
	}
	return resp, err
}

func TestResolveContextCancelMidRunReturnsPartialResult(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := &cancellingClient{inner: newSimClient(questions, pool, 1), cancel: cancel, after: 2}
	f := NewFromConfig(client, Config{Seed: 1})
	res, err := f.Resolve(ctx, questions, pool)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T %v, want *BatchError", err, err)
	}
	if be.Batch != 2 {
		t.Errorf("failed batch = %d, want 2 (cancel fired after two completions)", be.Batch)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil partial result")
	}
	answered, unknown := 0, 0
	for _, p := range res.Pred {
		if p == entity.Unknown {
			unknown++
		} else {
			answered++
		}
	}
	if answered == 0 {
		t.Error("partial result carries no completed predictions")
	}
	if unknown == 0 {
		t.Error("partial result claims full coverage despite cancellation")
	}
	if res.Ledger.Calls() != 2 {
		t.Errorf("partial ledger records %d calls, want 2", res.Ledger.Calls())
	}
}

func TestResolveContextCancelParallel(t *testing.T) {
	questions, pool := testWorkload(t, "IA", 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := &cancellingClient{inner: newSimClient(questions, pool, 2), cancel: cancel, after: 3}
	f := NewFromConfig(client, Config{Seed: 2, Parallelism: 4})
	res, err := f.Resolve(ctx, questions, pool)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
}

func TestResolveStreamPreCancelled(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := NewFromConfig(newSimClient(questions, pool, 1), Config{})
	if _, err := f.Prepare(ctx, questions, pool); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Prepare err = %v", err)
	}
	if _, err := f.Resolve(ctx, questions, pool); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Resolve err = %v", err)
	}
}

func TestResolveStreamEmptyQuestions(t *testing.T) {
	f := NewFromConfig(llm.NewSimulated(nil, 1), Config{})
	prep, err := f.Prepare(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := prep.Start(context.Background())
	for range st.All() {
		t.Error("empty stream yielded a batch")
	}
	if st.Err() != nil {
		t.Errorf("empty stream err = %v", st.Err())
	}
}

func TestBatchErrorUnwrap(t *testing.T) {
	cause := errors.New("boom")
	err := &BatchError{Batch: 3, Err: cause}
	if !errors.Is(err, cause) {
		t.Error("BatchError does not unwrap to its cause")
	}
	if got := err.Error(); got != "core: batch 3: boom" {
		t.Errorf("Error() = %q", got)
	}
}

func TestWorkerCapAtBatchCount(t *testing.T) {
	// Parallelism far above the batch count must still complete cleanly
	// (workers are capped at len(batches)).
	questions, pool := testWorkload(t, "Beer", 16)
	client := newSimClient(questions, pool, 7)
	f := NewFromConfig(client, Config{Seed: 7, Parallelism: 64})
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	nb := len(plannedBatches(t, f, questions, pool))
	if nb >= 64 {
		t.Fatalf("workload too large for the cap to matter: %d batches", nb)
	}
	answered := 0
	for _, p := range res.Pred {
		if p != entity.Unknown {
			answered++
		}
	}
	if answered != len(questions) {
		t.Errorf("answered %d/%d under capped parallelism", answered, len(questions))
	}
}

// failAfter succeeds for the first `after` calls and errors afterwards,
// simulating a backend that dies mid-run.
type failAfter struct {
	inner llm.Client
	calls atomic.Int32
	after int32
}

func (c *failAfter) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if c.calls.Add(1) > c.after {
		return llm.Response{}, errors.New("backend exploded")
	}
	return c.inner.Complete(ctx, req)
}

func TestParallelFailureDeliversContiguousPrefix(t *testing.T) {
	questions, pool := testWorkload(t, "IA", 64)
	client := &failAfter{inner: newSimClient(questions, pool, 9), after: 3}
	f := NewFromConfig(client, Config{Seed: 9, Parallelism: 4})
	res, err := f.Resolve(context.Background(), questions, pool)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	// BatchError.Batch is the resume point: every batch below it was
	// delivered (and billed into the partial ledger), nothing at or
	// above it was.
	for bi, batch := range plannedBatches(t, f, questions, pool) {
		for _, qi := range batch {
			if bi < be.Batch && res.Pred[qi] == entity.Unknown {
				t.Errorf("batch %d below resume point %d left question %d unanswered", bi, be.Batch, qi)
			}
			if bi >= be.Batch && res.Pred[qi] != entity.Unknown {
				t.Errorf("batch %d at/above resume point %d was delivered", bi, be.Batch)
			}
		}
	}
	if res.Ledger.Calls() != be.Batch {
		t.Errorf("partial ledger records %d calls, want %d (the delivered prefix)", res.Ledger.Calls(), be.Batch)
	}
}

// engineClient is the gate-and-count client of the batch-engine tests. A
// sequential dry run teaches it which batch each prompt belongs to;
// after that it logs every call's start and end by batch index, parks
// the calls of held batches until the test releases them, and fails the
// batches told to fail. Tests synchronise on its started/ended channels
// and on the gates, never on time.
type engineClient struct {
	inner   llm.Client
	learn   bool
	batchOf map[string]int

	hold map[int]chan struct{} // fixed before the run starts
	fail map[int]error         // fixed before the run starts

	started, ended chan int // one send per call, buffered for every batch

	mu  sync.Mutex
	log []string // "start 3", "end 3", and whatever the test notes
}

func (c *engineClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if c.learn {
		c.batchOf[req.Prompt] = len(c.batchOf)
		return c.inner.Complete(ctx, req)
	}
	bi, ok := c.batchOf[req.Prompt]
	if !ok {
		return llm.Response{}, errors.New("engineClient: prompt not seen in the dry run")
	}
	c.note("start %d", bi)
	c.started <- bi
	if gate := c.hold[bi]; gate != nil {
		<-gate
	}
	resp, err := llm.Response{}, c.fail[bi]
	if err == nil {
		resp, err = c.inner.Complete(ctx, req)
	}
	c.note("end %d", bi)
	c.ended <- bi
	return resp, err
}

func (c *engineClient) note(format string, args ...any) {
	c.mu.Lock()
	c.log = append(c.log, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// pos returns the log position of event, or -1 when it never happened.
func (c *engineClient) pos(format string, args ...any) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Index(c.log, fmt.Sprintf(format, args...))
}

// starts counts the batches whose call has started so far.
func (c *engineClient) starts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ev := range c.log {
		if strings.HasPrefix(ev, "start ") {
			n++
		}
	}
	return n
}

// holdBatches parks the calls of batches [0, n) and returns their release.
func (c *engineClient) holdBatches(n int) (release func(bi int)) {
	for bi := range n {
		c.hold[bi] = make(chan struct{})
	}
	return func(bi int) { close(c.hold[bi]) }
}

// await receives n events from ch and returns them sorted.
func await(ch <-chan int, n int) []int {
	got := make([]int, n)
	for i := range got {
		got[i] = <-ch
	}
	slices.Sort(got)
	return got
}

// newEngineRun prepares an 8-batch resolution at the given Parallelism
// over an engineClient that already knows its prompts.
func newEngineRun(t *testing.T, parallelism int) (*Prepared, *engineClient) {
	t.Helper()
	questions, pool := testWorkload(t, "IA", 64)
	c := &engineClient{
		inner:   newSimClient(questions, pool, 9),
		learn:   true,
		batchOf: map[string]int{},
		hold:    map[int]chan struct{}{},
		fail:    map[int]error{},
	}
	dry := NewFromConfig(c, Config{Seed: 9})
	if _, err := dry.Resolve(context.Background(), questions, pool); err != nil {
		t.Fatal(err)
	}
	n := len(plannedBatches(t, dry, questions, pool))
	if len(c.batchOf) != n || n < 6 {
		t.Fatalf("dry run: %d prompts for %d batches, want one each and at least 6", len(c.batchOf), n)
	}
	c.learn = false
	c.started, c.ended = make(chan int, n), make(chan int, n)
	prep, err := NewFromConfig(c, Config{Seed: 9, Parallelism: parallelism}).Prepare(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	return prep, c
}

// drain ranges st and returns the delivered batch indices.
func drain(st *Stream) []int {
	var got []int
	for br := range st.All() {
		got = append(got, br.Index)
	}
	return got
}

// drainAsync ranges st on a goroutine of its own, a consumer that is
// always ready, and sends the delivered batch indices once All returns;
// st.Err may be read after the receive.
func drainAsync(st *Stream) <-chan []int {
	got := make(chan []int, 1)
	go func() { got <- drain(st) }()
	return got
}

// ascending returns 0, 1, …, n-1.
func ascending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestBatchErrorCarriesTheNamedBatchsOwnError(t *testing.T) {
	err0, err1 := errors.New("batch 0 exploded"), errors.New("batch 1 exploded")
	for _, tc := range []struct {
		name      string
		fail      map[int]error
		order     []int // the order the two parked calls return in
		wantBatch int
		wantErr   error
	}{
		{"both fail, upper returns first", map[int]error{0: err0, 1: err1}, []int{1, 0}, 0, err0},
		{"both fail, lower returns first", map[int]error{0: err0, 1: err1}, []int{0, 1}, 0, err0},
		{"only upper fails, returns first", map[int]error{1: err1}, []int{1, 0}, 1, err1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prep, c := newEngineRun(t, 2)
			c.fail = tc.fail
			release := c.holdBatches(2)
			st := prep.Start(context.Background())
			delivered := drainAsync(st)
			await(c.started, 2)
			for _, bi := range tc.order {
				release(bi)
				// The call has returned before the next one is let go.
				for <-c.ended != bi {
				}
			}
			got := <-delivered
			var be *BatchError
			if !errors.As(st.Err(), &be) {
				t.Fatalf("Err = %v, want *BatchError", st.Err())
			}
			if be.Batch != tc.wantBatch || be.Err != tc.wantErr {
				t.Errorf("Err = batch %d: %v, want batch %d: %v", be.Batch, be.Err, tc.wantBatch, tc.wantErr)
			}
			if !slices.Equal(got, ascending(tc.wantBatch)) {
				t.Errorf("delivered %v, want the prefix below batch %d", got, tc.wantBatch)
			}
		})
	}
}

// TestFailureStopsClaiming: once a batch fails permanently no batch
// above it is claimed. At Parallelism 1 exactly the batches up to the
// failing one call the model; at Parallelism 2 at most one more, the
// sibling already in flight, does.
func TestFailureStopsClaiming(t *testing.T) {
	const failing = 2
	boom := errors.New("batch 2 exploded")
	for _, tc := range []struct{ workers, maxCalls int }{{1, failing + 1}, {2, failing + 2}} {
		t.Run(fmt.Sprintf("parallelism %d", tc.workers), func(t *testing.T) {
			prep, c := newEngineRun(t, tc.workers)
			c.fail = map[int]error{failing: boom}
			var got []int
			err := prep.Run(context.Background(), func(br BatchResult) { got = append(got, br.Index) })
			var be *BatchError
			if !errors.As(err, &be) || be.Batch != failing || be.Err != boom {
				t.Fatalf("Run = %v, want batch %d: %v", err, failing, boom)
			}
			if !slices.Equal(got, ascending(failing)) {
				t.Errorf("delivered %v, want the prefix below batch %d", got, failing)
			}
			if calls := c.starts(); calls < failing+1 || calls > tc.maxCalls {
				t.Errorf("%d of %d batches called the model, want %d to %d", calls, len(prep.Batches()), failing+1, tc.maxCalls)
			}
		})
	}
}

// TestSequentialDeliveryIsUnbuffered pins what Parallelism 1 has always
// meant: a completed batch is handed to the consumer before the next one
// starts, and a cancellation that lands while it waits to be taken still
// delivers it and starts nothing more.
func TestSequentialDeliveryIsUnbuffered(t *testing.T) {
	prep, c := newEngineRun(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := prep.Start(ctx)
	const cancelAt = 3
	// "take b" marks the consumer asking for batch b: before the range
	// for batch 0, at the end of batch b-1's loop body after that.
	c.note("take 0")
	taken, ended := 0, 0
	for br := range st.All() {
		b := br.Index
		if b != taken {
			t.Fatalf("received batch %d, want %d", b, taken)
		}
		taken++
		// Up to cancelAt, batch b+1's call has returned before the body
		// goes on: the worker is at, or on its way to, the delivery the
		// consumer has not yet asked for.
		for ; ended <= min(b+1, cancelAt); ended++ {
			if got := <-c.ended; got != ended {
				t.Fatalf("call %d ended, want %d", got, ended)
			}
		}
		if b+1 == cancelAt {
			cancel()
		}
		c.note("take %d", b+1)
	}
	if taken != cancelAt+1 {
		t.Fatalf("stream ended after %d batches, want %d", taken, cancelAt+1)
	}
	for b := 1; b <= cancelAt; b++ {
		if start, take := c.pos("start %d", b), c.pos("take %d", b-1); start < take {
			t.Errorf("batch %d started (event %d) before the consumer asked for batch %d (event %d)", b, start, b-1, take)
		}
	}
	if n := c.starts(); n != cancelAt+1 {
		t.Errorf("%d batches started, want %d: none may be claimed after cancel", n, cancelAt+1)
	}
	var be *BatchError
	if !errors.As(st.Err(), &be) || be.Batch != cancelAt+1 || be.Err != context.Canceled {
		t.Errorf("Err = %v, want batch %d: context canceled", st.Err(), cancelAt+1)
	}
}

// TestBackpressureStopsClaiming: while the consumer is not receiving, the
// worker holding the next delivery keeps every other worker from
// claiming, so only the Parallelism − 1 batches already started finish.
func TestBackpressureStopsClaiming(t *testing.T) {
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("parallelism %d", workers), func(t *testing.T) {
			prep, c := newEngineRun(t, workers)
			release := c.holdBatches(workers)
			// The consumer is away for batch 0's delivery: emit parks until
			// back closes. Waiting for emit itself, not for batch 0's call to
			// end, is what proves its worker holds the engine — between the
			// two, a released sibling may legitimately claim the next batch.
			emitting, back := make(chan struct{}), make(chan struct{})
			var got []int
			done := make(chan error, 1)
			go func() {
				done <- prep.Run(context.Background(), func(br BatchResult) {
					if br.Index == 0 {
						close(emitting)
						<-back
					}
					got = append(got, br.Index)
				})
			}()
			await(c.started, workers)
			// Batch 0 completes and waits for a consumer that is not there;
			// only then do the other workers' calls return.
			release(0)
			<-emitting
			for bi := 1; bi < workers; bi++ {
				release(bi)
			}
			await(c.ended, workers)
			c.note("resume")
			close(back)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if want := ascending(len(prep.Batches())); !slices.Equal(got, want) {
				t.Errorf("delivered %v, want %v", got, want)
			}
			for bi := workers; bi < len(prep.Batches()); bi++ {
				if start, resume := c.pos("start %d", bi), c.pos("resume"); start < resume {
					t.Errorf("batch %d was claimed (event %d) while the consumer was away (back at event %d)", bi, start, resume)
				}
			}
		})
	}
}

// TestCancelStopsAtTheBatchBoundary: cancelled while every worker is
// inside a call, the run completes and delivers exactly those batches
// and claims nothing after, at every Parallelism alike.
func TestCancelStopsAtTheBatchBoundary(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallelism %d", workers), func(t *testing.T) {
			prep, c := newEngineRun(t, workers)
			release := c.holdBatches(workers)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			st := prep.Start(ctx)
			delivered := drainAsync(st)
			if got := await(c.started, workers); !slices.Equal(got, ascending(workers)) {
				t.Fatalf("in flight: %v, want the lowest %d batches", got, workers)
			}
			cancel()
			for bi := range workers {
				release(bi)
			}
			if got := <-delivered; !slices.Equal(got, ascending(workers)) {
				t.Errorf("delivered %v, want exactly the %d batches in flight at cancel", got, workers)
			}
			if n := c.starts(); n != workers {
				t.Errorf("%d batches started, want %d: none may be claimed after cancel", n, workers)
			}
			var be *BatchError
			if !errors.As(st.Err(), &be) || be.Batch != workers || be.Err != context.Canceled {
				t.Errorf("Err = %v, want batch %d: context canceled", st.Err(), workers)
			}
		})
	}
	t.Run("expired deadline keeps its name", func(t *testing.T) {
		prep, c := newEngineRun(t, 2)
		ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
		defer cancel()
		st := prep.Start(ctx)
		if got := drain(st); len(got) != 0 || c.starts() != 0 {
			t.Errorf("delivered %v after %d starts, want nothing claimed", got, c.starts())
		}
		var be *BatchError
		if !errors.As(st.Err(), &be) || be.Batch != 0 || be.Err != context.DeadlineExceeded {
			t.Errorf("Err = %v, want batch 0: context deadline exceeded", st.Err())
		}
	})
}

// TestStreamBodyRunsOnTheRangingGoroutine: however many workers Run
// starts, the loop body runs on the goroutine that ranges All, so a
// panic or t.Fatal in it lands where the consumer can handle it.
func TestStreamBodyRunsOnTheRangingGoroutine(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallelism %d", workers), func(t *testing.T) {
			prep, _ := newEngineRun(t, workers)
			st := prep.Start(context.Background())
			caller := goroutineID()
			var elsewhere []int
			for br := range st.All() {
				if goroutineID() != caller {
					elsewhere = append(elsewhere, br.Index)
				}
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			if len(elsewhere) != 0 {
				t.Errorf("batches %v reached the loop body off the ranging goroutine", elsewhere)
			}
		})
	}
}

// streamCreated matches the stack footer of a goroutine that All or Run
// started.
var streamCreated = regexp.MustCompile(`created by batcher/internal/core\.\(\*(Stream\)\.run|Prepared\)\.Run) in goroutine \d+\n`)

// streamGoroutines counts the live goroutines that All and Run started.
func streamGoroutines() int {
	buf := make([]byte, 1<<20)
	return len(streamCreated.FindAll(buf[:runtime.Stack(buf, true)], -1))
}

// awaitNoStreamGoroutines polls for a bounded time: a goroutine that has
// closed the channel or called wg.Done may still be unwinding when All
// returns, but none may still be running for long.
func awaitNoStreamGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for streamGoroutines() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines started by All still alive after it returned", streamGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamLeavesNoGoroutine: whether the loop runs out, breaks or the
// run fails, nothing All started outlives it.
func TestStreamLeavesNoGoroutine(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, ending := range []string{"runs out", "breaks", "fails"} {
			t.Run(fmt.Sprintf("parallelism %d %s", workers, ending), func(t *testing.T) {
				prep, c := newEngineRun(t, workers)
				if ending == "fails" {
					c.fail[2] = errors.New("batch 2 exploded")
				}
				st := prep.Start(context.Background())
				alive := 0
				for br := range st.All() {
					if br.Index == 0 {
						alive = streamGoroutines()
					}
					if ending == "breaks" {
						break
					}
				}
				if alive == 0 {
					t.Error("no goroutine of All's was alive inside the loop: the check below would be vacuous")
				}
				awaitNoStreamGoroutines(t)
				if err := st.Err(); (err != nil) != (ending == "fails") {
					t.Errorf("Err = %v after the loop %s", err, ending)
				}
			})
		}
	}
}

// TestStreamRunsOnlyWhenRanged: Start makes no call, and neither does a
// second range, which leaves Err as the first range left it.
func TestStreamRunsOnlyWhenRanged(t *testing.T) {
	for _, fails := range []bool{false, true} {
		t.Run(fmt.Sprintf("failing run %v", fails), func(t *testing.T) {
			prep, c := newEngineRun(t, 2)
			if fails {
				c.fail[2] = errors.New("batch 2 exploded")
			}
			st := prep.Start(context.Background())
			if len(st.Batches()) != len(prep.Batches()) || st.DemosLabeled() != len(prep.LabeledPool()) ||
				st.NewResult() == nil || st.Err() != nil {
				t.Fatal("an unranged stream does not describe its run")
			}
			select {
			case bi := <-c.started:
				t.Fatalf("batch %d called before All was ranged", bi)
			case <-time.After(100 * time.Millisecond):
			}
			first := drain(st)
			calls, err := c.starts(), st.Err()
			if calls == 0 || (err != nil) != fails {
				t.Fatalf("first range: %d calls, Err = %v", calls, err)
			}
			// Empty the call logs so that a second run could not block on them.
			await(c.started, calls)
			await(c.ended, calls)
			if again := drain(st); len(again) != 0 {
				t.Errorf("second range yielded %v after %v", again, first)
			}
			if c.starts() != calls {
				t.Errorf("second range made %d calls", c.starts()-calls)
			}
			if st.Err() != err {
				t.Errorf("second range changed Err from %v to %v", err, st.Err())
			}
		})
	}
}

// TestStreamBreakAbandonsRun: a break at batch 0 is a clean stop that
// ends the run before All returns. At Parallelism 1 the worker can have
// started at most batch 1 by then; above it a worker may claim further
// batches until a delivery blocks, so only the freeze is pinned.
func TestStreamBreakAbandonsRun(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallelism %d", workers), func(t *testing.T) {
			prep, c := newEngineRun(t, workers)
			st := prep.Start(context.Background())
			for br := range st.All() {
				if br.Index != 0 {
					t.Fatalf("first batch index = %d, want 0", br.Index)
				}
				break
			}
			calls := c.starts()
			// A consumer-initiated stop is not a run failure.
			if err := st.Err(); err != nil {
				t.Errorf("Err after break = %v, want nil", err)
			}
			if workers == 1 && calls > 2 {
				t.Errorf("%d calls after a break at batch 0, want at most 2", calls)
			}
			// Once nothing All started is left, no call can still begin.
			awaitNoStreamGoroutines(t)
			if c.starts() != calls {
				t.Errorf("calls grew from %d to %d after All returned", calls, c.starts())
			}
			await(c.started, calls)
			await(c.ended, calls)
			if got := drain(st); len(got) != 0 {
				t.Errorf("stream still yielding %v after break", got)
			}
		})
	}
}
