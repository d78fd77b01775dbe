package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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
	f := New(client, WithBatching(DiversityBatching), WithSelection(CoveringSelection), WithSeed(1))
	st, err := f.ResolveStream(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Batches()) < 2 {
		t.Fatalf("workload produced %d batches, need >= 2", len(st.Batches()))
	}
	// The second LLM call is parked, so receiving the first batch here
	// proves the stream yields incrementally rather than materializing
	// the whole run.
	first, ok := st.Next()
	if !ok {
		t.Fatalf("stream closed before first batch: %v", st.Err())
	}
	if first.Index != 0 {
		t.Errorf("first batch index = %d, want 0", first.Index)
	}
	if done := int(client.calls.Load()); done >= len(st.Batches()) {
		t.Errorf("full run finished (%d calls) before first yield was consumed", done)
	}
	if first.Ledger.Calls() != 1 || first.InputTokens <= 0 {
		t.Errorf("batch delta malformed: calls=%d inTokens=%d", first.Ledger.Calls(), first.InputTokens)
	}
	close(client.gate)
	got := 1
	prev := 0
	for br := range st.All() {
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
		f := New(client,
			WithBatching(DiversityBatching), WithSelection(CoveringSelection),
			WithSeed(9), WithParallelism(parallelism))
		st, err := f.ResolveStream(context.Background(), questions, pool)
		if err != nil {
			t.Fatal(err)
		}
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
// completions, simulating a caller that gives up mid-run.
type cancellingClient struct {
	inner  llm.Client
	cancel context.CancelFunc
	calls  atomic.Int32
	after  int32
}

func (c *cancellingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	resp, err := c.inner.Complete(ctx, req)
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return resp, err
}

func TestResolveContextCancelMidRunReturnsPartialResult(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := &cancellingClient{inner: newSimClient(questions, pool, 1), cancel: cancel, after: 2}
	f := New(client, WithSeed(1))
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
	f := New(client, WithSeed(2), WithParallelism(4))
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
	f := New(newSimClient(questions, pool, 1))
	if _, err := f.ResolveStream(ctx, questions, pool); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ResolveStream err = %v", err)
	}
	if _, err := f.Resolve(ctx, questions, pool); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Resolve err = %v", err)
	}
}

func TestStreamCloseAbandonsRun(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 40)
	client := newSimClient(questions, pool, 3)
	f := New(client, WithSeed(3))
	st, err := f.ResolveStream(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("no first batch: %v", st.Err())
	}
	st.Close()
	if _, ok := st.Next(); ok {
		t.Error("stream still yielding after Close")
	}
	// A consumer-initiated stop is not a run failure.
	if err := st.Err(); err != nil {
		t.Errorf("Err after deliberate Close = %v, want nil", err)
	}
	st.Close() // idempotent
}

func TestResolveStreamEmptyQuestions(t *testing.T) {
	f := New(llm.NewSimulated(nil, 1))
	st, err := f.ResolveStream(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); ok {
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

func TestOptionDefaultsMatchConfigDefaults(t *testing.T) {
	// New(client) with zero options must resolve to exactly the paper's
	// defaults, i.e. Config{}.applyDefaults().
	got := New(llm.NewSimulated(nil, 1)).Config()
	want := Config{}.applyDefaults()
	if got.BatchSize != want.BatchSize || got.NumDemos != want.NumDemos ||
		got.Batching != want.Batching || got.Selection != want.Selection ||
		got.CoverPercentile != want.CoverPercentile ||
		got.ClusterEpsPercentile != want.ClusterEpsPercentile ||
		got.ClusterMinPts != want.ClusterMinPts ||
		got.Model != want.Model || got.Temperature != want.Temperature ||
		got.TaskDescription != want.TaskDescription ||
		got.DistanceSampleCap != want.DistanceSampleCap ||
		got.Parallelism != want.Parallelism ||
		got.JSONAnswers != want.JSONAnswers {
		t.Errorf("option defaults diverge:\n got %+v\nwant %+v", got, want)
	}
	if got.Extractor.Name() != want.Extractor.Name() {
		t.Errorf("default extractor = %q, want %q", got.Extractor.Name(), want.Extractor.Name())
	}
}

func TestOptionsApplyAndCompose(t *testing.T) {
	f := New(llm.NewSimulated(nil, 1),
		WithBatchSize(4),
		WithNumDemos(6),
		WithModel(llm.GPT4),
		WithTemperature(0.5),
		WithCoverPercentile(0.2),
		WithParallelism(3),
		WithSeed(42),
		WithJSONAnswers(),
	)
	cfg := f.Config()
	if cfg.BatchSize != 4 || cfg.NumDemos != 6 || cfg.Model != llm.GPT4 ||
		cfg.Temperature != 0.5 || cfg.CoverPercentile != 0.2 ||
		cfg.Parallelism != 3 || cfg.Seed != 42 || !cfg.JSONAnswers {
		t.Errorf("options not applied: %+v", cfg)
	}
	// WithConfig overlays wholesale; later options still win.
	f2 := New(llm.NewSimulated(nil, 1), WithConfig(Config{BatchSize: 2}), WithBatchSize(5))
	if f2.Config().BatchSize != 5 {
		t.Errorf("later option lost: %d", f2.Config().BatchSize)
	}
}

func TestWorkerCapAtBatchCount(t *testing.T) {
	// Parallelism far above the batch count must still complete cleanly
	// (workers are capped at len(batches)).
	questions, pool := testWorkload(t, "Beer", 16)
	client := newSimClient(questions, pool, 7)
	f := New(client, WithSeed(7), WithParallelism(64))
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) >= 64 {
		t.Fatalf("workload too large for the cap to matter: %d batches", len(res.Batches))
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
	f := New(client, WithSeed(9), WithParallelism(4))
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
	for bi, batch := range res.Batches {
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
	dry, err := New(c, WithSeed(9)).Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	n := len(dry.Batches)
	if len(c.batchOf) != n || n < 6 {
		t.Fatalf("dry run: %d prompts for %d batches, want one each and at least 6", len(c.batchOf), n)
	}
	c.learn = false
	c.started, c.ended = make(chan int, n), make(chan int, n)
	prep, err := New(c, WithSeed(9), WithParallelism(parallelism)).Prepare(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	return prep, c
}

// drain consumes the rest of st and returns the delivered batch indices.
func drain(st *Stream) []int {
	var got []int
	for br := range st.All() {
		got = append(got, br.Index)
	}
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
			await(c.started, 2)
			for _, bi := range tc.order {
				release(bi)
				// The call has returned before the next one is let go.
				for <-c.ended != bi {
				}
			}
			got := drain(st)
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
	for b := 0; ; b++ {
		if b <= cancelAt {
			// Batch b's call has returned: the worker is at, or on its way
			// to, the delivery the consumer has not yet asked for.
			if got := <-c.ended; got != b {
				t.Fatalf("call %d ended, want %d", got, b)
			}
		}
		if b == cancelAt {
			cancel()
		}
		c.note("take %d", b)
		br, ok := st.Next()
		if !ok {
			if b != cancelAt+1 {
				t.Fatalf("stream ended after %d batches, want %d", b, cancelAt+1)
			}
			break
		}
		if br.Index != b {
			t.Fatalf("received batch %d, want %d", br.Index, b)
		}
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
			st := prep.Start(context.Background())
			await(c.started, workers)
			// Batch 0 completes and waits for a consumer that is not there;
			// only then do the other workers' calls return.
			release(0)
			await(c.ended, 1)
			for bi := 1; bi < workers; bi++ {
				release(bi)
			}
			await(c.ended, workers-1)
			c.note("resume")
			if got, want := drain(st), ascending(len(prep.Batches())); !slices.Equal(got, want) {
				t.Errorf("delivered %v, want %v", got, want)
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
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
			if got := await(c.started, workers); !slices.Equal(got, ascending(workers)) {
				t.Fatalf("in flight: %v, want the lowest %d batches", got, workers)
			}
			cancel()
			for bi := range workers {
				release(bi)
			}
			if got := drain(st); !slices.Equal(got, ascending(workers)) {
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
