package pipeline

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"batcher/internal/core"
	"batcher/internal/entity"
	"batcher/internal/runstore"
)

// inflight is one window travelling through the executor. The
// producer fills the identity fields (at, rw, keys) and the journal's
// answer (verifyErr, journaled) when it admits the window; the runner
// goroutine fills prepErr, prep, at.Labeled, cancel and results before
// closing prepped, and runErr before closing results; the committer
// reads the former after <-prepped and the latter after draining
// results. Those two closes are the only synchronization the struct
// needs.
type inflight struct {
	// at is the window's journal start record. Index and Offset are
	// journal-local (counting only the windows this run owns, identical
	// to the stream position on unsharded runs), Global and Key place
	// the window in the full candidate stream, Size is len(rw.amb), and
	// Labeled is the window's annotated pool indices once known:
	// journaled for a replayed window, selected by prep for a live one,
	// nil otherwise.
	at runstore.WindowStart
	// rw is the cascade-routed window: rw.full is the blocked window,
	// rw.amb the matcher's input (identical without a pre-filter). All
	// journal coordinates (offset, keys) are over rw.amb.
	rw routedWindow
	// keys are the matched pairs' identities; nil without a journal.
	keys []string
	// verifyErr is a journal/stream mismatch detected at admission; the
	// window is not run and the committer fails the run when it reaches
	// it (in order, so earlier windows still commit first).
	verifyErr error
	// journaled is what the journal loaded at open holds for the window
	// (zero without a journal). With Preds set the window is fully
	// journaled and is never prepared or executed; otherwise Usage is
	// what an earlier attempt billed for it.
	journaled runstore.Replay
	// prepped is closed by the runner once the fields below are final.
	prepped chan struct{}
	prepErr error
	// prep, cancel and results stay nil for windows with nothing to
	// execute: replayed, mismatched, unpreparable, or fully auto-resolved.
	prep *core.Prepared
	// cancel stops the window's remaining batches at the next boundary.
	cancel context.CancelFunc
	// results is fully buffered (one slot per batch), so the runner's
	// sends never block and it runs to its end even if the committer
	// abandons the run — no goroutine or LLM-call leak either way.
	results chan core.BatchResult
	// runErr is prep.Run's terminal error, final once results is closed.
	runErr error
}

// run executes the window off the committer's critical path: the
// CPU-bound front half (Prepare: feature extraction, batching,
// demonstration selection) and then the LLM calls
// (Prepared.Run, this goroutine being one of its workers), each
// completed batch going straight into the buffered results channel.
// Windows with nothing to execute are the committer's alone.
func (w *inflight) run(ctx context.Context, f *core.Framework, pool []entity.Pair) {
	if w.verifyErr != nil || w.journaled.Preds != nil || len(w.rw.amb) == 0 {
		close(w.prepped)
		return
	}
	// Prepare runs to completion even when the run is being abandoned:
	// salvage journals a WindowStart for every admitted window, and
	// window starts must stay contiguous or the windows behind this one
	// could not record their completed (billed) batches. A cancelled run
	// still stops promptly — Run below checks ctx before it claims each
	// batch, the first included, at every Parallelism — it just pays
	// this window's CPU-only prep first.
	prep, err := f.Prepare(context.WithoutCancel(ctx), w.rw.amb, pool)
	if err != nil {
		w.prepErr = err
		close(w.prepped)
		return
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.prep, w.cancel, w.at.Labeled = prep, cancel, prep.LabeledPool()
	w.results = make(chan core.BatchResult, len(prep.Batches()))
	close(w.prepped)
	w.runErr = prep.Run(ctx, func(br core.BatchResult) { w.results <- br })
	close(w.results)
}

// stop cancels the window's remaining batches and waits for its runner.
func (w *inflight) stop() {
	if w.prep == nil {
		return
	}
	w.cancel()
	for range w.results {
	}
}

// executor is the one way a run executes. Three roles share the work:
//
//   - The producer (goroutine) streams candidates from the blocker into
//     StreamWindow-sized windows — a single unbounded one when
//     StreamWindow <= 0 — and admits each full window and the tail:
//     it skips windows another shard owns without waiting, holds every
//     owned one until one of K = max(1, InFlightWindows) slots is free,
//     routes it through the cascade pre-filter, decides replay-vs-run
//     against the journal state loaded at open, spawns its runner and
//     sends it on in window order.
//   - Each runner (goroutine per in-flight window) prepares its window
//     and executes its LLM calls, overlapping the other in-flight
//     windows and the producer.
//   - The committer (Run's goroutine) applies windows strictly in window
//     order: journal records, ledger folds, OnPair and Progress hooks
//     all happen there, so K changes wall-clock time and not one byte of
//     output. On failure it stops the other two and salvages.
type executor struct {
	cfg Config
	f   *core.Framework
	// jstate is the journal content loaded at open; nil without a journal.
	jstate *runstore.RunState

	sem     chan struct{}  // one slot per in-flight window, capacity K
	ordered chan *inflight // producer → committer, in window order

	blocked      atomic.Int64 // candidates generated so far, for Progress
	blockingDone atomic.Bool
	buffered     atomic.Int64 // pairs admitted, not yet committed

	// Producer-only until it closes ordered; the committer reads them
	// only after ordered is drained, which orders the accesses.
	blockErr                 error
	blockingTime             time.Duration
	peak                     int64 // high-water mark of buffered
	streamTotal, streamOwned int   // windows in the stream / owned by this shard
	offset                   int   // journal-local offset of the next owned window

	// Committer-only state.
	rep *Report
	agg *core.Result
	// sharedLabeled is the set of Config.Pool pairs billed so far; nil on
	// self-pooled runs (see foldWindow).
	sharedLabeled map[int]bool
}

func newExecutor(cfg Config, f *core.Framework) *executor {
	k := max(1, cfg.InFlightWindows)
	e := &executor{
		cfg: cfg,
		f:   f,
		sem: make(chan struct{}, k),
		// Sends never block: at most K windows hold the semaphore, and a
		// window stays in the channel only until the committer receives it.
		ordered: make(chan *inflight, k),
		rep:     &Report{},
		agg:     &core.Result{},
	}
	if cfg.Journal != nil {
		e.jstate = cfg.Journal.State()
	}
	if cfg.Pool != nil {
		e.sharedLabeled = make(map[int]bool)
	}
	return e
}

func (e *executor) run(ctx context.Context, tableA, tableB []entity.Record) (*Report, error) {
	// One context stops the producer and every runner at once when the
	// committer fails.
	ctx, stop := context.WithCancel(ctx)
	defer stop()

	t0 := time.Now()
	go func() {
		defer close(e.ordered)
		tail, err := e.produce(ctx, tableA, tableB)
		if err == nil {
			e.blockingTime = time.Since(t0)
			e.blockingDone.Store(true)
			if len(tail) > 0 {
				err = e.admit(ctx, tail)
			}
		}
		e.blockErr = err
	}()

	e.progress(0) // setup snapshot
	var m0 time.Time
	var err error
	for iw := range e.ordered {
		if m0.IsZero() {
			m0 = time.Now()
		}
		if err = e.commit(iw); err != nil {
			stop()
			e.salvage()
			break
		}
	}
	// ordered is drained, so the producer has exited and its plain
	// fields are safe to read.
	if err == nil {
		err = e.blockErr
	}
	rep := e.rep
	rep.Result = e.agg
	rep.BlockingTime = e.blockingTime
	rep.PeakBuffered = int(e.peak)
	if !m0.IsZero() {
		rep.MatchingTime = time.Since(m0)
	}
	if err != nil {
		if rep.Candidates == 0 { // nothing folded: nothing partial to keep
			return nil, err
		}
		return rep, err
	}
	if j := e.cfg.Journal; j != nil {
		// The whole stream was seen and every owned window committed.
		if err := j.Done(runstore.RunDone{Windows: e.streamTotal, Owned: e.streamOwned}); err != nil {
			return rep, fmt.Errorf("pipeline: journal: %w", err)
		}
	}
	e.progress(0)
	return rep, nil
}

// produce is the blocking stage: it admits each full window of
// StreamWindow pairs and returns the unfinished tail — every candidate
// when StreamWindow <= 0, since no window ever fills. The MaxCandidates
// guard trips the moment the cap is crossed.
func (e *executor) produce(ctx context.Context, tableA, tableB []entity.Record) ([]entity.Pair, error) {
	size := e.cfg.StreamWindow
	w := make([]entity.Pair, 0, max(0, size))
	for p, err := range e.cfg.Blocker.BlockStream(ctx, tableA, tableB) {
		if err != nil {
			return nil, fmt.Errorf("pipeline: blocking: %w", err)
		}
		w = append(w, p)
		n := e.blocked.Add(1)
		if e.cfg.MaxCandidates > 0 && int(n) > e.cfg.MaxCandidates {
			return nil, fmt.Errorf("pipeline: blocking exceeded the %d-candidate cap", e.cfg.MaxCandidates)
		}
		if len(w) == size {
			if err := e.admit(ctx, w); err != nil {
				return nil, err
			}
			w = make([]entity.Pair, 0, size)
		}
	}
	return w, nil
}

// admit starts one window of the stream on its way to the committer. A
// window another shard owns is skipped at once: it takes no slot and no
// buffer space, so blocking runs on to this shard's next window while
// its own windows execute. An owned window waits for a slot first, so
// at most K windows sit past this point.
func (e *executor) admit(ctx context.Context, w []entity.Pair) error {
	// The partition key is fixed before any routing: every shard
	// walking this stream computes the same owner for this window.
	key := w[0].Key()
	at := runstore.WindowStart{Index: e.streamOwned, Offset: e.offset, Global: e.streamTotal, Key: key}
	e.streamTotal++
	if !e.cfg.Shard.Owns(key) {
		return nil
	}
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return fmt.Errorf("pipeline: blocking: %w", ctx.Err())
	}
	if n := e.buffered.Add(int64(len(w))); n > e.peak {
		e.peak = n
	}
	// Routing happens here, serially, so every window's ambiguous
	// offset is fixed before the next window is admitted — the
	// journal coordinates cannot depend on runner timing.
	rw := routeWindow(e.cfg.Prefilter, w)
	at.Size = len(rw.amb)
	pool := e.cfg.Pool
	if pool == nil {
		pool = rw.amb
	}
	iw := &inflight{at: at, rw: rw, prepped: make(chan struct{})}
	if e.cfg.Journal != nil {
		iw.keys = pairKeys(rw.amb)
		iw.journaled, iw.verifyErr = e.jstate.Replay(at, iw.keys)
	}
	go iw.run(ctx, e.f, pool)
	e.ordered <- iw
	e.streamOwned++
	e.offset += len(rw.amb)
	return nil
}

// commit applies one window: its result — replayed from the journal, or
// gathered from its runner — is expanded over the auto-resolved pairs,
// folded into the aggregate and emitted. A window that fails part-way
// is folded and emitted too, so billed spend and answered predictions
// survive, before its error is returned.
func (e *executor) commit(iw *inflight) error {
	<-iw.prepped
	if iw.verifyErr != nil {
		return fmt.Errorf("pipeline: %w", iw.verifyErr)
	}
	var res *core.Result
	var err error
	if r := iw.journaled; r.Preds != nil {
		// Fully journaled: the window's result without the matcher.
		res = &core.Result{
			Pred:         r.Preds,
			DemosLabeled: len(r.Labeled),
			PromptTokens: r.Usage.InputTokens(),
			TrimmedDemos: r.Trimmed,
		}
		res.Ledger.MergeAPI(&r.Usage)
		res.Ledger.AddLabels(len(r.Labeled))
		iw.at.Labeled = r.Labeled
		e.rep.Replayed += len(iw.rw.amb)
	} else {
		res, err = e.gather(iw)
	}
	if res != nil {
		full := iw.rw.expand(res)
		foldWindow(e.agg, full, iw.at.Labeled, e.sharedLabeled)
		emitPairs(e.cfg, e.rep, iw.rw.full, full.Pred)
		e.rep.Candidates += len(iw.rw.full)
		e.rep.AutoResolved += iw.rw.autoResolved()
		if res.Degraded > 0 {
			e.rep.Degraded++
		}
	}
	if err != nil {
		return fmt.Errorf("pipeline: matching: %w", err)
	}
	e.buffered.Add(-int64(len(iw.rw.full)))
	inFlight := len(e.sem) - 1 // the other windows holding a slot
	<-e.sem
	e.rep.Windows++
	e.progress(inFlight)
	return nil
}

// gather journals a live window's start, then collects its batches as
// the runner completes them, journaling each. It returns the partial
// result alongside a mid-window error, and a nil result when the window
// never started.
func (e *executor) gather(iw *inflight) (*core.Result, error) {
	// What a previous attempt billed for this window, ahead of the
	// re-run's results. The re-run reproduces the already-billed batches
	// as free cache hits (zero tokens, no call), so with a persistent
	// response cache the resumed ledger converges to the uninterrupted
	// run's.
	if u := &iw.journaled.Usage; u.Calls() != 0 || u.InputTokens() != 0 || u.OutputTokens() != 0 {
		e.agg.Ledger.MergeAPI(u)
		e.agg.PromptTokens += u.InputTokens()
	}
	if iw.prepErr != nil {
		return nil, iw.prepErr
	}
	j := e.cfg.Journal
	if j != nil {
		// Fully auto-resolved windows record their (empty) start too:
		// window starts must stay gap-free.
		if err := j.WindowStart(iw.at); err != nil {
			iw.stop()
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	if iw.prep == nil {
		return &core.Result{}, nil
	}
	res := iw.prep.NewResult()
	for br := range iw.results {
		res.Apply(br)
		if j == nil {
			continue
		}
		if err := journalBatch(j, iw.at.Index, iw.keys, br); err != nil {
			iw.stop()
			return res, fmt.Errorf("journal: %w", err)
		}
	}
	return res, iw.runErr
}

// salvage drains the windows still in flight after a failure, in
// order, journaling the batches each completed so a resume replays them
// instead of re-billing. The first append failure ends the journaling,
// never the drain: that is what waits for every runner to exit.
func (e *executor) salvage() {
	j := e.cfg.Journal
	for iw := range e.ordered {
		<-iw.prepped
		// Replayed, mismatched, and unpreparable windows billed nothing.
		if iw.verifyErr != nil || iw.journaled.Preds != nil || iw.prepErr != nil {
			continue
		}
		if j != nil && j.WindowStart(iw.at) != nil {
			j = nil
		}
		if iw.prep == nil {
			continue
		}
		for br := range iw.results {
			if j != nil && journalBatch(j, iw.at.Index, iw.keys, br) != nil {
				j = nil
			}
		}
	}
}

func (e *executor) progress(inFlight int) {
	if e.cfg.Progress == nil {
		return
	}
	e.cfg.Progress(Progress{
		Blocked:      int(e.blocked.Load()),
		BlockingDone: e.blockingDone.Load(),
		Matched:      e.rep.Candidates,
		Replayed:     e.rep.Replayed,
		Windows:      e.rep.Windows,
		APIUSD:       e.agg.Ledger.API(),
		Degraded:     e.rep.Degraded,
		InFlight:     inFlight,
	})
}
