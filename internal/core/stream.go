package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"

	"batcher/internal/cost"
	"batcher/internal/entity"
	"batcher/internal/llm"
)

// BatchResult is one completed batch delivered by Prepared.Run: the
// predictions for that batch's questions plus the per-batch cost delta.
// Consumers can fold deltas into running totals without waiting for the
// full run.
type BatchResult struct {
	// Index is the batch's position in Stream.Batches order. Batches are
	// always emitted in ascending Index order, even under parallelism.
	Index int
	// Questions lists the question indices this batch answered.
	Questions []int
	// Pred holds one label per entry of Questions, aligned by position.
	Pred []entity.Label
	// TrimmedDemos counts demonstrations dropped to fit the context window.
	TrimmedDemos int
	// Ledger is the API cost delta for this batch alone: its calls,
	// their billed tokens and dollars.
	Ledger cost.Ledger
	// Tier names the tier that produced Pred on a cascade run
	// (cost.TierCheap or cost.TierExpensive); empty on single-model runs.
	Tier string
	// Degraded marks a batch answered by the degradation policy instead
	// of the LLM: its breaker-refused call was replaced by Unknowns (or
	// the cheap tier's answer). Degraded batches are journaled as
	// repairable, not as answered.
	Degraded bool
}

// BatchError is the typed error Run (and so Resolve and Stream.Err)
// reports when a run fails mid-flight: it names the first batch that was
// not delivered — the resume point — and wraps that batch's own cause.
type BatchError struct {
	// Batch is the index of the failed or never-started batch.
	Batch int
	// Err is the error Batch's calls returned, or ctx.Err() when the run
	// was stopped before Batch started.
	Err error
}

// Error implements error.
func (e *BatchError) Error() string { return fmt.Sprintf("core: batch %d: %v", e.Batch, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// Stream is a prepared resolution bound to a context by Prepared.Start.
// Nothing runs until All is ranged: the range loop is the run, and it
// yields each batch in deterministic ascending order as it completes.
// When the loop has ended, Err reports whether the run finished cleanly.
type Stream struct {
	prep   *Prepared
	all    iter.Seq[BatchResult] // run under Start's ctx
	ranged bool
	err    error
}

// Batches returns the planned question batches. It is available
// immediately, before any batch completes.
func (s *Stream) Batches() Batches { return s.prep.batches }

// DemosLabeled returns the number of distinct pool pairs annotated up
// front (the run's labeling cost in pairs).
func (s *Stream) DemosLabeled() int { return len(s.prep.sel.labeled) }

// NewResult is Prepared.NewResult for this stream's run.
func (s *Stream) NewResult() *Result { return s.prep.NewResult() }

// All returns the run as a single-use iterator: ranging it runs
// Prepared.Run under Run's stop and delivery contract, with the
// consumer's break as one more way to stop at the next batch boundary.
// The loop body runs on the ranging goroutine; a consumer that stops
// taking batches stops the run's claiming, and at Parallelism 1 a batch
// starts only after the previous one was taken. However the loop ends —
// run out, broken or panicking — the run has ended when All returns. A
// second range yields nothing and makes no call.
func (s *Stream) All() iter.Seq[BatchResult] { return s.all }

// Err returns the terminal error once All's loop has run out: nil when
// every batch was delivered, Run's *BatchError otherwise. It is nil
// before the first range and after a consumer's break, which is a clean
// stop rather than a failure.
func (s *Stream) Err() error { return s.err }

// run is All's iterator. Run works on a goroutine of its own and hands
// each batch across an unbuffered channel, so yield is only ever called
// here, on the ranging goroutine. The deferred cancel and drain end the
// run before run returns, whichever way the loop ended.
func (s *Stream) run(ctx context.Context, yield func(BatchResult) bool) {
	if s.ranged {
		return
	}
	s.ranged = true
	ctx, cancel := context.WithCancel(ctx)
	ch := make(chan BatchResult)
	var err error
	go func() {
		defer close(ch)
		err = s.prep.Run(ctx, func(br BatchResult) { ch <- br })
	}()
	defer func() {
		cancel()
		for range ch {
		}
	}()
	for br := range ch {
		if !yield(br) {
			return
		}
	}
	s.err = err
}

// Run is the one batch engine under Resolve, Stream.All and the
// pipeline's window runner: it executes the prepared batches with up to
// Config.Parallelism LLM calls in flight and hands each completed batch
// to emit. It returns nil when every batch was delivered and a
// *BatchError otherwise. A Prepared must be Run (or its Stream ranged)
// at most once.
//
// The stop and delivery contract, stated here once for every caller:
//
//   - Stop at the next batch boundary. Cancelling ctx, its deadline
//     passing, or a batch failing stops the run: no further batch
//     starts. A batch that has started finishes — its calls run under
//     context.WithoutCancel(ctx), so an in-flight call ends by answering
//     or by its client's own timeout, never by this cancellation. The
//     batch is the unit of billing and of journaling: cut between a
//     cascade's billed cheap call and its escalation, or inside a call
//     the backend has already counted, its spend would reach no ledger
//     and no journal, and a resume would pay for it a second time.
//   - Ascending, serialised delivery. emit is called for batch 0, 1, 2, …
//     in that order and never concurrently, whichever worker finished
//     first; a batch that completes ahead of a lower one waits in its
//     slot while its worker goes on to the next batch.
//   - Contiguous prefix. Every batch below the returned BatchError.Batch
//     was delivered and nothing at or above it was: completions above
//     the first failed batch cannot be delivered in order and are
//     dropped (see Resolve for what that means for a partial ledger).
//     BatchError.Err is that batch's own error, or ctx.Err() when the
//     run was stopped before the batch started.
//   - Backpressure. A worker delivers while holding the engine's mutex,
//     so while emit blocks no batch is claimed and at most
//     Parallelism − 1 already-started batches finish. This cannot
//     deadlock: the lock is local to this call, so emit's consumer can
//     never need it, and making the other workers wait for the consumer
//     is the point of holding it. (erlint's locksend check is lexical
//     and cannot see a send behind emit; this paragraph is its stand-in.)
//
// min(Parallelism, batches) workers run, and the calling goroutine is one
// of them: at Parallelism 1 Run starts no goroutine and is a plain loop.
func (p *Prepared) Run(ctx context.Context, emit func(BatchResult)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(p.batches)
	callCtx := context.WithoutCancel(ctx)
	// A slot parks batch i's outcome until every batch below i is delivered.
	type slot struct {
		br  BatchResult
		err error
		ran bool
	}
	var (
		mu      sync.Mutex
		slots   = make([]slot, n)
		claimed int  // batches started so far: the next index to claim
		next    int  // batches delivered so far: the next index to emit
		failed  bool // some batch returned an error
	)
	work := func() {
		mu.Lock()
		for claimed < n && !failed && ctx.Err() == nil {
			bi := claimed
			claimed++
			mu.Unlock()
			br, err := p.runBatch(callCtx, bi)
			mu.Lock()
			slots[bi] = slot{br: br, err: err, ran: true}
			failed = failed || err != nil
			for next < n && slots[next].ran && slots[next].err == nil {
				emit(slots[next].br)
				next++
			}
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for range min(p.f.cfg.Parallelism, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if next == n {
		return nil
	}
	// Claims ascend, so the first undelivered batch either ran and failed
	// or was never claimed because ctx ended first.
	if slots[next].ran {
		return &BatchError{Batch: next, Err: slots[next].err}
	}
	return &BatchError{Batch: next, Err: ctx.Err()}
}

// runBatch annotates, prompts, and parses one batch. On cascade runs it
// routes the batch through the tiers: straight to the expensive model
// when the vote-k margin is below the escalation threshold, otherwise
// cheap first with an escalation retry when the cheap answer carries
// Unknowns. The escalated request reuses the identical demos and
// questions — only the model and tier differ — so caches key the two
// attempts apart by tier, and resume re-derives the same escalation
// decision from the same cached cheap completion.
func (p *Prepared) runBatch(ctx context.Context, bi int) (BatchResult, error) {
	f := p.f
	demos := f.annotate(p.pool, p.sel.perBatch[bi])
	batch := p.batches[bi]
	qs := make([]entity.Pair, len(batch))
	for i, qi := range batch {
		qs[i] = p.questions[qi]
	}
	br := BatchResult{Index: bi, Questions: batch}
	// attempt asks one tier and folds its answer into br; ask has
	// already billed every call it made to br, so both of a cascade's
	// attempts accumulate on the batch and the ledger splits them per
	// tier. A refusal the degradation policy absorbs completes the batch
	// as degraded instead (see degrade), standing on cheapPred when the
	// cheap tier had answered.
	attempt := func(model llm.Model, tier llm.Tier, cheapPred []entity.Label) error {
		pred, err := f.ask(ctx, model, tier, demos, qs, &br)
		if err != nil {
			if !f.degradable(err) {
				return err
			}
			br = f.degrade(br, len(batch), cheapPred)
			return nil
		}
		br.Pred, br.Tier = pred, tierName(tier)
		return nil
	}
	var err error
	switch {
	case !p.cascade:
		err = attempt(p.model, llm.TierDefault, nil)
	case p.margins[bi] >= f.cfg.EscalateMargin:
		err = attempt(p.cheap, llm.TierCheap, nil)
		if err == nil && !br.Degraded && anyUnknown(br.Pred) {
			err = attempt(p.model, llm.TierExpensive, br.Pred)
		}
	default: // low margin: the cheap tier is skipped
		err = attempt(p.model, llm.TierExpensive, nil)
	}
	if err != nil {
		return BatchResult{}, err
	}
	return br, nil
}

// degradable reports whether err is the one failure the degradation
// policy absorbs: a circuit-breaker refusal, with a policy other than
// fail-fast configured. (Whether the caller is still alive does not
// enter: a started batch runs to its end either way.)
func (f *Framework) degradable(err error) bool {
	return f.cfg.Degrade != DegradeFailFast && errors.Is(err, llm.ErrCircuitOpen)
}

// degrade completes br under the degradation policy: the cheap tier's
// answer when DegradeCheapOnly has one to stand on, all-Unknown
// otherwise. Whatever tokens and spend the batch accumulated before
// the refusal stay on it — they were billed and must reach the
// journal so a repairing resume does not re-bill them.
func (f *Framework) degrade(br BatchResult, n int, cheapPred []entity.Label) BatchResult {
	if f.cfg.Degrade == DegradeCheapOnly && cheapPred != nil {
		br.Pred = cheapPred
		br.Tier = cost.TierCheap
	} else {
		pred := make([]entity.Label, n)
		for i := range pred {
			pred[i] = entity.Unknown
		}
		br.Pred = pred
		br.Tier = ""
	}
	br.Degraded = true
	return br
}

// anyUnknown reports whether any answer failed to parse to a label —
// the cascade's post-call low-confidence escalation trigger.
func anyUnknown(pred []entity.Label) bool {
	for _, l := range pred {
		if l == entity.Unknown {
			return true
		}
	}
	return false
}
