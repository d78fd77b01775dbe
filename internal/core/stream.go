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

// BatchError is the typed error ResolveStream and Resolve report when a
// run fails mid-flight: it names the first batch that did not complete
// and wraps the underlying cause (which may be ctx.Err()).
type BatchError struct {
	// Batch is the index of the failed or never-started batch.
	Batch int
	// Err is the underlying cause.
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
	batches     Batches
	labeledPool []int

	ch     chan BatchResult
	cancel context.CancelFunc

	mu     sync.Mutex
	err    error
	closed bool
}

// Batches returns the planned question batches. It is available
// immediately, before any batch completes.
func (s *Stream) Batches() Batches { return s.batches }

// DemosLabeled returns the number of distinct pool pairs annotated up
// front (the run's labeling cost in pairs).
func (s *Stream) DemosLabeled() int { return len(s.labeledPool) }

// LabeledPool returns the pool indices of the annotated pairs, in
// ascending order. The slice is shared; callers must not mutate it.
func (s *Stream) LabeledPool() []int { return s.labeledPool }

// NewResult returns a Result primed for folding this stream's batches:
// one Unknown prediction per question and the up-front labeling cost
// recorded. Feed each BatchResult to Result.Apply as it arrives — this
// is exactly how Resolve accumulates its return value.
func (s *Stream) NewResult() *Result {
	n := 0
	for _, b := range s.batches {
		n += len(b)
	}
	res := &Result{
		Pred:         make([]entity.Label, n),
		Batches:      s.batches,
		DemosLabeled: len(s.labeledPool),
		LabeledPool:  s.labeledPool,
		BatchMargins: make([]float64, len(s.batches)),
	}
	for i := range res.Pred {
		res.Pred[i] = entity.Unknown
	}
	// Annotation happens up front, as in Figure 2's "Manual Labeling".
	res.Ledger.AddLabels(len(s.labeledPool))
	return res
}

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

// emit delivers one completed batch. The send blocks until the consumer
// takes it: sequentially, a batch whose LLM call already completed (and
// was billed) is always delivered, making cancellation deterministic —
// it only takes effect between batches. Under parallelism the same holds
// for the contiguous prefix below the first failed batch; completions
// beyond that gap cannot be delivered in order and are dropped. Close
// drains the channel, so an abandoning consumer cannot deadlock the
// producer.
func (s *Stream) emit(br BatchResult) {
	s.ch <- br
}

// execPlan is everything the execution half needs to run batches: the
// prepared inputs plus the cascade tiering decision. It exists so the
// producer goroutines carry one value instead of seven parameters.
type execPlan struct {
	f         *Framework
	model     llm.Model // the (expensive, on cascade runs) main model
	cheap     llm.Model // the cheap tier; valid only when cascade is set
	cascade   bool
	batches   Batches
	sel       selection
	questions []entity.Pair
	pool      []entity.Pair
}

// margin returns batch bi's vote-k margin (1 when margins are absent).
func (p *execPlan) margin(bi int) float64 {
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
func (f *Framework) runBatch(ctx context.Context, p *execPlan, bi int) (BatchResult, error) {
	demos := f.annotate(p.pool, p.sel.perBatch[bi])
	batch := p.batches[bi]
	qs := make([]entity.Pair, len(batch))
	for i, qi := range batch {
		qs[i] = p.questions[qi]
	}
	br := BatchResult{Index: bi, Questions: batch, VoteMargin: p.margin(bi)}
	if !p.cascade {
		resp, trimmed, err := f.callWithTrim(ctx, p.model, llm.TierDefault, demos, qs)
		if err != nil {
			if f.degradable(err) {
				return f.degrade(br, len(batch), nil), nil
			}
			return BatchResult{}, err
		}
		br.Pred = prompt.ParseAnswersAny(resp.Completion, len(batch))
		br.InputTokens = resp.InputTokens
		br.OutputTokens = resp.OutputTokens
		br.TrimmedDemos = trimmed
		// A cache-served batch made no API call: its tokens are zero and it
		// must not inflate the ledger's call count either, or resumed and
		// cached runs would report more calls than were ever billed.
		if !resp.CacheHit {
			br.Ledger.AddCall(p.model.Pricing, resp.InputTokens, resp.OutputTokens)
		}
		return br, nil
	}
	var cheapPred []entity.Label
	if br.VoteMargin >= f.cfg.EscalateMargin {
		resp, trimmed, err := f.callWithTrim(ctx, p.cheap, llm.TierCheap, demos, qs)
		if err != nil {
			if f.degradable(err) {
				// The cheap tier itself is down: nothing answered yet.
				return f.degrade(br, len(batch), nil), nil
			}
			return BatchResult{}, err
		}
		pred := prompt.ParseAnswersAny(resp.Completion, len(batch))
		br.InputTokens += resp.InputTokens
		br.OutputTokens += resp.OutputTokens
		br.TrimmedDemos += trimmed
		if !resp.CacheHit {
			br.Ledger.AddTierCall(cost.TierCheap, p.cheap.Pricing, resp.InputTokens, resp.OutputTokens)
		}
		if !anyUnknown(pred) {
			br.Pred = pred
			br.Tier = cost.TierCheap
			return br, nil
		}
		cheapPred = pred
	}
	// Escalate: low margin skipped the cheap tier, or its answer carried
	// Unknowns. Both attempts' tokens accumulate on the batch; the ledger
	// splits them per tier.
	resp, trimmed, err := f.callWithTrim(ctx, p.model, llm.TierExpensive, demos, qs)
	if err != nil {
		if f.degradable(err) {
			// Only the expensive tier is refusing; the cheap spend above
			// stays on the batch so a repairing resume does not re-bill it.
			return f.degrade(br, len(batch), cheapPred), nil
		}
		return BatchResult{}, err
	}
	br.Pred = prompt.ParseAnswersAny(resp.Completion, len(batch))
	br.InputTokens += resp.InputTokens
	br.OutputTokens += resp.OutputTokens
	br.TrimmedDemos += trimmed
	if !resp.CacheHit {
		br.Ledger.AddTierCall(cost.TierExpensive, p.model.Pricing, resp.InputTokens, resp.OutputTokens)
	}
	br.Tier = cost.TierExpensive
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

// runSequential is the single-worker producer: one batch at a time, with
// a cancellation check between batches and none inside one (the
// contract on Prepared.Start).
func (s *Stream) runSequential(ctx context.Context, p *execPlan) {
	defer close(s.ch)
	defer s.cancel()
	for bi := range p.batches {
		if err := ctx.Err(); err != nil {
			s.setErr(&BatchError{Batch: bi, Err: err})
			return
		}
		br, err := p.f.runBatch(context.WithoutCancel(ctx), p, bi)
		if err != nil {
			s.setErr(&BatchError{Batch: bi, Err: err})
			return
		}
		s.emit(br)
	}
}

// runParallel fans batches over a bounded worker pool (capped at the
// batch count, so small runs never spawn idle goroutines) and re-emits
// completions in ascending batch order. On the first failure the derived
// context is cancelled, which drains the jobs channel and stops every
// worker at its next batch boundary (the contract on Prepared.Start)
// without leaking goroutines.
func (s *Stream) runParallel(ctx context.Context, p *execPlan, workers int) {
	defer close(s.ch)
	defer s.cancel()

	type outcome struct {
		br  BatchResult
		err error
	}
	jobs := make(chan int)
	results := make(chan outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case bi, ok := <-jobs:
					if !ok {
						return
					}
					br, err := p.f.runBatch(context.WithoutCancel(ctx), p, bi)
					if err != nil {
						err = &BatchError{Batch: bi, Err: err}
					}
					// Send unconditionally: a completed batch was billed,
					// and dropping it in a race with cancellation would
					// falsify partial ledgers. This cannot deadlock: the
					// collector drains results until close, and any
					// batch it cannot re-emit it discards itself.
					results <- outcome{br: br, err: err}
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for bi := range p.batches {
			select {
			case jobs <- bi:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder completions so consumers see batches 0,1,2,... regardless
	// of which worker finished first. After a failure, keep draining and
	// delivering: batches that completed (and were billed) concurrently
	// with the failure still reach the consumer as long as they extend
	// the contiguous prefix, so partial ledgers stay truthful.
	pending := make(map[int]BatchResult)
	next := 0
	var cause error
	for out := range results {
		if out.err != nil {
			if cause == nil {
				var be *BatchError
				if errors.As(out.err, &be) {
					cause = be.Err
				} else {
					cause = out.err
				}
				s.cancel() // stop scheduling further batches
			}
			continue
		}
		pending[out.br.Index] = out.br
		for {
			br, ok := pending[next]
			if !ok {
				break
			}
			s.emit(br)
			delete(pending, next)
			next++
		}
	}
	if next < len(p.batches) {
		if cause == nil {
			// No batch-level error: the parent context must have died.
			cause = ctx.Err()
		}
		// Batch names the first batch that was NOT delivered — the
		// resume point for a caller that wants to retry the remainder.
		s.setErr(&BatchError{Batch: next, Err: cause})
	}
}
