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
	"batcher/internal/prompt"
)

// BatchResult is one completed batch emitted by ResolveStream: the
// predictions for that batch's questions plus the per-batch token usage
// and cost delta. Consumers can fold deltas into running totals without
// waiting for the full run.
type BatchResult struct {
	// Index is the batch's position in Stream.Batches order. Batches are
	// always emitted in ascending Index order, even under parallelism.
	Index int
	// Questions lists the question indices this batch answered.
	Questions []int
	// Pred holds one label per entry of Questions, aligned by position.
	Pred []entity.Label
	// InputTokens and OutputTokens are this batch's billed token counts.
	InputTokens  int
	OutputTokens int
	// TrimmedDemos counts demonstrations dropped to fit the context window.
	TrimmedDemos int
	// Ledger is the API cost delta for this batch alone.
	Ledger cost.Ledger
	// VoteMargin is the batch's vote-k disagreement margin in [0,1]:
	// low values mean the annotated neighbourhood disagrees about this
	// batch's questions. It is the cascade's pre-call escalation signal
	// and is reported for every run, cascade or not.
	VoteMargin float64
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

// Stream is an in-flight resolution returned by ResolveStream. Batches
// arrive on Next (or All) as they complete, in deterministic ascending
// batch order; after the stream is exhausted, Err reports whether the run
// finished cleanly. A Stream must be consumed or Closed, otherwise the
// producer goroutines leak.
type Stream struct {
	prep *Prepared

	ch     chan BatchResult
	cancel context.CancelFunc

	mu     sync.Mutex
	err    error
	closed bool
}

// Batches returns the planned question batches. It is available
// immediately, before any batch completes.
func (s *Stream) Batches() Batches { return s.prep.batches }

// DemosLabeled returns the number of distinct pool pairs annotated up
// front (the run's labeling cost in pairs).
func (s *Stream) DemosLabeled() int { return len(s.prep.sel.labeled) }

// NewResult is Prepared.NewResult for this stream's run.
func (s *Stream) NewResult() *Result { return s.prep.NewResult() }

// Next blocks until the next batch completes, returning ok=false once the
// stream is exhausted (normally or on failure — check Err to tell apart).
func (s *Stream) Next() (BatchResult, bool) {
	br, ok := <-s.ch
	return br, ok
}

// All returns a single-use iterator over the remaining batches. Breaking
// out of the range loop Closes the stream: the run is cancelled and
// drained, and — because the stop was the consumer's choice — Err stays
// nil unless the run had already failed on its own.
func (s *Stream) All() iter.Seq[BatchResult] {
	return func(yield func(BatchResult) bool) {
		for {
			br, ok := s.Next()
			if !ok {
				return
			}
			if !yield(br) {
				s.Close()
				return
			}
		}
	}
}

// Err returns the terminal error, or nil if the run completed (or is
// still running). After Next reports ok=false a non-nil Err is always a
// *BatchError.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close cancels the run and drains any in-flight batches. It is safe to
// call multiple times and after exhaustion. A consumer-initiated Close is
// a clean stop, not a failure: Err stays nil unless the run had already
// failed before Close was called.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	for range s.ch {
	}
}

func (s *Stream) setErr(err error) {
	s.mu.Lock()
	if !s.closed && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// emit is Start's delivery callback for Prepared.Run: an unbuffered send,
// so a batch is delivered only when the consumer takes it and a consumer
// that stops receiving stops the run's claiming (the contract on Run).
// Close drains the channel, so an abandoning consumer cannot wedge the
// producer.
func (s *Stream) emit(br BatchResult) {
	s.ch <- br
}

// Run is the one batch engine under Resolve, ResolveStream/Start and the
// pipeline's window runner: it executes the prepared batches with up to
// Config.Parallelism LLM calls in flight and hands each completed batch
// to emit. It returns nil when every batch was delivered and a
// *BatchError otherwise. A Prepared must be Run (or Started) at most once.
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

// margin returns batch bi's vote-k margin (1 when margins are absent).
func (p *Prepared) margin(bi int) float64 {
	if bi < len(p.sel.margins) {
		return p.sel.margins[bi]
	}
	return 1
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
	br := BatchResult{Index: bi, Questions: batch, VoteMargin: p.margin(bi)}
	// attempt makes one tier's call and folds its answer, tokens and
	// spend into br; both of a cascade's attempts accumulate on the batch
	// and the ledger splits them per tier. A refusal the degradation
	// policy absorbs completes the batch as degraded instead (see
	// degrade), standing on cheapPred when the cheap tier had answered.
	attempt := func(model llm.Model, tier llm.Tier, bucket string, cheapPred []entity.Label) error {
		resp, trimmed, err := f.callWithTrim(ctx, model, tier, demos, qs)
		if err != nil {
			if !f.degradable(err) {
				return err
			}
			br = f.degrade(br, len(batch), cheapPred)
			return nil
		}
		br.Pred = prompt.ParseAnswersAny(resp.Completion, len(batch))
		br.Tier = bucket
		br.InputTokens += resp.InputTokens
		br.OutputTokens += resp.OutputTokens
		br.TrimmedDemos += trimmed
		// A cache-served batch made no API call: its tokens are zero and it
		// must not inflate the ledger's call count either, or resumed and
		// cached runs would report more calls than were ever billed.
		if !resp.CacheHit {
			br.Ledger.AddTierCall(bucket, model.Pricing, resp.InputTokens, resp.OutputTokens)
		}
		return nil
	}
	var err error
	switch {
	case !p.cascade:
		err = attempt(p.model, llm.TierDefault, "", nil)
	case br.VoteMargin >= f.cfg.EscalateMargin:
		err = attempt(p.cheap, llm.TierCheap, cost.TierCheap, nil)
		if err == nil && !br.Degraded && anyUnknown(br.Pred) {
			err = attempt(p.model, llm.TierExpensive, cost.TierExpensive, br.Pred)
		}
	default: // low margin: the cheap tier is skipped
		err = attempt(p.model, llm.TierExpensive, cost.TierExpensive, nil)
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
