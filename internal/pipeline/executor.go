package pipeline

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/runstore"
)

// window is one producer-to-dispatcher handoff: candidate pairs plus
// their entity profiles, built as the pairs arrive so that profile
// construction overlaps earlier windows' matching, and dropped once the
// window is prepared, which bounds profile memory by the windows in flight.
type window struct {
	pairs    []entity.Pair
	profiles *feature.Profiles
}

// inflight is one window travelling through the executor. The
// dispatcher fills the identity fields (pos, rw, keys, profiles) and the
// journal decisions (verifyErr, replay); the runner goroutine fills
// prepErr, prep, cancel and results before closing prepped, and runErr
// before closing results; the committer reads the former after
// <-prepped and the latter after draining results. Those two closes are
// the only synchronization the struct needs.
type inflight struct {
	pos winPos
	// rw is the cascade-routed window: rw.full is the blocked window,
	// rw.amb the matcher's input (identical without a pre-filter). All
	// journal coordinates (offset, keys) are over rw.amb.
	rw routedWindow
	// keys are the matched pairs' identities; nil without a journal.
	keys []string
	// profiles are rw.full's entity profiles, held until Prepare returns.
	profiles *feature.Profiles
	// verifyErr is a journal/stream mismatch detected at dispatch; the
	// window is not run and the committer fails the run when it reaches
	// it (in order, so earlier windows still commit first).
	verifyErr error
	// replay is the fully journaled window's reconstructed result; when
	// non-nil the window is never prepared or executed.
	replay *core.Result
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
// CPU-bound front half (Prepare: profile reuse, feature extraction,
// batching, demonstration selection) and then the LLM calls
// (Prepared.Run, this goroutine being one of its workers), each
// completed batch going straight into the buffered results channel.
// Windows with nothing to execute are the committer's alone.
func (w *inflight) run(ctx context.Context, f *core.Framework, pool []entity.Pair) {
	if w.verifyErr != nil || w.replay != nil || len(w.rw.amb) == 0 {
		close(w.prepped)
		return
	}
	// Prepare runs to completion even when the run is being abandoned:
	// salvage journals a WindowStart for every dispatched window, and
	// window starts must stay contiguous or the windows behind this one
	// could not record their completed (billed) batches. A cancelled run
	// still stops promptly — Run below checks ctx before it claims each
	// batch, the first included, at every Parallelism — it just pays
	// this window's CPU-only prep first.
	prep, err := f.Prepare(feature.WithProfiles(context.WithoutCancel(ctx), w.profiles), w.rw.amb, pool)
	// Extraction is done; a single-window run must not keep the whole
	// run's profiles alive across its LLM phase.
	w.profiles = nil
	if err != nil {
		w.prepErr = err
		close(w.prepped)
		return
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.prep, w.cancel = prep, cancel
	w.results = make(chan core.BatchResult, len(prep.Batches()))
	close(w.prepped)
	w.runErr = prep.Run(ctx, func(br core.BatchResult) { w.results <- br })
	close(w.results)
}

// startRecord is the window's journal start; a window that never
// reached the matcher annotated nothing.
func (w *inflight) startRecord() runstore.WindowStart {
	ws := runstore.WindowStart{
		Index:  w.pos.idx,
		Offset: w.pos.offset,
		Size:   len(w.rw.amb),
		Global: w.pos.global,
		Key:    w.pos.key,
	}
	if w.prep != nil {
		ws.Labeled = w.prep.LabeledPool()
	}
	return ws
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

// executor is the one way a run executes. Four roles share the work:
//
//   - The producer (goroutine) streams candidates from the blocker into
//     StreamWindow-sized windows — a single unbounded one when
//     StreamWindow <= 0 — warming entity profiles as pairs arrive.
//   - The dispatcher (goroutine) admits at most K = max(1,
//     InFlightWindows) windows past a semaphore, skips windows another
//     shard owns, routes each through the cascade pre-filter, decides
//     replay-vs-run against the journal state loaded at open, spawns a
//     runner per admitted window, and forwards the windows in order.
//   - Each runner (goroutine per in-flight window) prepares its window
//     and executes its LLM calls, overlapping the other in-flight
//     windows and the producer.
//   - The committer (Run's goroutine) applies windows strictly in window
//     order: journal records, ledger folds, OnPair and Progress hooks
//     all happen there, so K changes wall-clock time and not one byte of
//     output. On failure it stops the other three and salvages.
type executor struct {
	cfg Config
	f   *core.Framework
	// jstate is the journal content loaded at open; nil without a journal.
	jstate *runstore.RunState

	windows chan window    // producer → dispatcher, unbuffered: direct handoff
	sem     chan struct{}  // one slot per in-flight window, capacity K
	ordered chan *inflight // dispatcher → committer, in window order

	blocked       atomic.Int64 // candidates generated so far, for Progress
	blockingDone  atomic.Bool
	buffered      atomic.Int64 // pairs admitted by the dispatcher, not yet committed
	inflightCount atomic.Int64

	// Written by the producer before it closes windows, or by the
	// dispatcher before it closes ordered; the committer reads them only
	// after ordered is drained, which orders the accesses.
	blockErr                 error
	blockingTime             time.Duration
	peak                     int64 // high-water mark of buffered
	streamTotal, streamOwned int   // windows in the stream / owned by this shard

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
		cfg:     cfg,
		f:       f,
		windows: make(chan window),
		sem:     make(chan struct{}, k),
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

func (e *executor) run(ctx context.Context, blocker blocking.Blocker, tableA, tableB []entity.Record) (*Report, error) {
	bctx, stopBlocking := context.WithCancel(ctx)
	defer stopBlocking()
	rctx, stopRunners := context.WithCancel(ctx)
	defer stopRunners()

	t0 := time.Now()
	go func() {
		defer close(e.windows)
		tail, err := e.produce(bctx, blocker, tableA, tableB)
		if err == nil {
			e.blockingTime = time.Since(t0)
			e.blockingDone.Store(true)
			if len(tail.pairs) > 0 {
				err = e.handoff(bctx, tail)
			}
		}
		e.blockErr = err
	}()
	go e.dispatch(rctx)

	e.progress(0) // setup snapshot
	var m0 time.Time
	var err error
	for iw := range e.ordered {
		if m0.IsZero() {
			m0 = time.Now()
		}
		if err = e.commit(iw); err != nil {
			stopBlocking()
			stopRunners()
			e.salvage()
			break
		}
	}
	// ordered is drained, so the producer and dispatcher have exited and
	// their plain fields are safe to read.
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
	rep.WindowsTotal = e.streamTotal
	if j := e.cfg.Journal; j != nil {
		// The whole stream was seen and every owned window committed.
		if err := j.Done(runstore.RunDone{Windows: e.streamTotal, Owned: e.streamOwned}); err != nil {
			return rep, fmt.Errorf("pipeline: journal: %w", err)
		}
	}
	e.progress(0)
	return rep, nil
}

// produce is the blocking stage: it hands each full window of
// StreamWindow pairs to the dispatcher and returns the unfinished tail —
// every candidate when StreamWindow <= 0, since no window ever fills.
// The MaxCandidates guard trips the moment the cap is crossed.
func (e *executor) produce(ctx context.Context, blocker blocking.Blocker, tableA, tableB []entity.Record) (window, error) {
	size, extractor := e.cfg.StreamWindow, e.f.Config().Extractor
	newWindow := func() window {
		return window{
			pairs:    make([]entity.Pair, 0, max(0, size)),
			profiles: feature.NewProfiles(extractor),
		}
	}
	w := newWindow()
	for p, err := range blocking.Stream(ctx, blocker, tableA, tableB) {
		if err != nil {
			return window{}, fmt.Errorf("pipeline: blocking: %w", err)
		}
		w.pairs = append(w.pairs, p)
		w.profiles.Warm(p)
		n := e.blocked.Add(1)
		if e.cfg.MaxCandidates > 0 && int(n) > e.cfg.MaxCandidates {
			return window{}, fmt.Errorf("pipeline: blocking exceeded the %d-candidate cap", e.cfg.MaxCandidates)
		}
		if len(w.pairs) == size {
			if err := e.handoff(ctx, w); err != nil {
				return window{}, err
			}
			w = newWindow()
		}
	}
	return w, nil
}

func (e *executor) handoff(ctx context.Context, w window) error {
	select {
	case e.windows <- w:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("pipeline: blocking: %w", ctx.Err())
	}
}

func (e *executor) dispatch(ctx context.Context) {
	defer close(e.ordered)
	wIdx, offset, gIdx := 0, 0, 0
	defer func() { e.streamTotal, e.streamOwned = gIdx, wIdx }()
	for {
		// Admit before receiving: a full window waits in the producer's
		// handoff until a slot frees, so at most K windows sit past it.
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			for range e.windows { // abandoned: drain so the producer can exit
			}
			return
		}
		w, ok := <-e.windows
		if !ok {
			return
		}
		if n := e.buffered.Add(int64(len(w.pairs))); n > e.peak {
			e.peak = n
		}
		// The partition key is fixed before any routing: every shard
		// walking this stream computes the same owner for this window.
		key := w.pairs[0].Key()
		if !e.cfg.Shard.Owns(key) {
			// Not ours: hand the slot and buffer space back.
			e.buffered.Add(-int64(len(w.pairs)))
			<-e.sem
			gIdx++
			continue
		}
		// Routing happens here, serially, so every window's ambiguous
		// offset is fixed before the next window is admitted — the
		// journal coordinates cannot depend on runner timing.
		rw := routeWindow(e.cfg.Prefilter, w.pairs)
		pool := e.cfg.Pool
		if pool == nil {
			pool = rw.amb
		}
		iw := &inflight{
			pos:      winPos{idx: wIdx, offset: offset, global: gIdx, key: key},
			rw:       rw,
			profiles: w.profiles,
			prepped:  make(chan struct{}),
		}
		if e.cfg.Journal != nil {
			iw.keys = pairKeys(rw.amb)
			if err := verifyJournalWindow(e.jstate, iw.pos, iw.keys); err != nil {
				iw.verifyErr = err
			} else if res, ok := replayWindow(e.jstate, wIdx, len(rw.amb)); ok {
				iw.replay = res
			}
		}
		e.inflightCount.Add(1)
		go iw.run(ctx, e.f, pool)
		e.ordered <- iw
		gIdx++
		wIdx++
		offset += len(rw.amb)
	}
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
	var err error
	res := iw.replay
	if res != nil {
		e.rep.Replayed += len(iw.rw.amb)
	} else {
		res, err = e.gather(iw)
	}
	if res != nil {
		full := iw.rw.expand(res)
		foldWindow(e.agg, full, e.sharedLabeled)
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
	inFlight := int(e.inflightCount.Add(-1))
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
	j := e.cfg.Journal
	if j != nil {
		// What a previous attempt billed for this window, ahead of the
		// re-run's results.
		mergePartialUsage(e.jstate, iw.pos.idx, e.agg)
	}
	if iw.prepErr != nil {
		return nil, iw.prepErr
	}
	if j != nil {
		// Fully auto-resolved windows record their (empty) start too:
		// window starts must stay gap-free.
		if err := j.WindowStart(iw.startRecord()); err != nil {
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
		if err := journalBatch(j, iw.pos.idx, iw.keys, br); err != nil {
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
		if iw.verifyErr != nil || iw.replay != nil || iw.prepErr != nil {
			continue
		}
		if j != nil && j.WindowStart(iw.startRecord()) != nil {
			j = nil
		}
		if iw.prep == nil {
			continue
		}
		for br := range iw.results {
			if j != nil && journalBatch(j, iw.pos.idx, iw.keys, br) != nil {
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
