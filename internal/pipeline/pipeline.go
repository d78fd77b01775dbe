// Package pipeline assembles the end-to-end ER system of Section II-A: a
// blocker produces candidate pairs from two raw tables, the BATCHER
// matcher labels them, and the result is a set of matched record ID
// pairs with full cost accounting. The paper evaluates only the matcher
// over pre-blocked candidates; this package is what a downstream user
// runs on actual tables.
//
// Every run goes through one executor (see the executor type) with two
// parameters. Config.StreamWindow cuts the candidate stream into windows
// that are batched, annotated and matched one by one — zero means a
// single window holding every candidate, the paper's collect-then-match
// semantics — and Config.InFlightWindows lets that many windows execute
// at once. One goroutine commits windows strictly in stream order, so
// predictions, hook calls, ledger totals and journal bytes depend on
// StreamWindow only. Blocking overlaps matching, candidate memory is
// bounded by the windows in flight instead of |A|x|B|, and the
// MaxCandidates guard trips the moment the cap is crossed.
//
// With a Config.Journal the run is durable: every completed batch is
// recorded on disk as it lands, and a re-run over the same journal
// replays the fully journaled windows without touching the matcher and
// continues from the first unanswered one. Pair it with a persistent
// response cache (runstore.Cache) and the partially answered window
// resumes for free too: its re-issued prompts are cache hits.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"batcher/internal/blocking"
	"batcher/internal/cascade"
	"batcher/internal/core"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/runstore"
	"batcher/internal/shard"
)

// Config wires the two stages together.
type Config struct {
	// Blocker produces candidates; nil defaults to token-overlap blocking
	// on all attributes with MinShared 2. Blockers implementing
	// blocking.StreamBlocker generate candidates incrementally; plain
	// Blockers are adapted (materializing their full slice once).
	Blocker blocking.Blocker
	// Matcher configures the BATCHER stage; zero value gets the paper's
	// defaults.
	Matcher core.Config
	// Pool supplies labeled pairs for demonstration annotation. Nil means
	// each window's own candidates form its (unlabeled) pool.
	Pool []entity.Pair
	// MaxCandidates aborts if blocking produces more pairs; a guard
	// against runaway API budgets. Zero disables the guard. The guard is
	// incremental: generation stops as soon as the cap is crossed.
	MaxCandidates int
	// StreamWindow is the window size in candidate pairs: each window is
	// batched, annotated and matched on its own while blocking fills the
	// next. Zero or less means a single window holding every candidate —
	// the paper's collect-then-match semantics, everything buffered.
	// Batching and demonstration selection see one window at a time, so
	// predictions differ between StreamWindow values.
	StreamWindow int
	// InFlightWindows is K, the number of windows that may execute at
	// once; values below 1 mean 1. Each in-flight window's CPU-bound
	// front half (feature extraction, batching, demonstration selection)
	// overlaps the other windows' LLM calls, while one ordered committer
	// applies results strictly in window order, so every output is
	// identical for every K. Candidate memory is up to
	// (K+1)*StreamWindow pairs: K windows in flight plus the one being
	// filled. With a single window K has no effect.
	//
	// On a mid-run failure the committer journals what the other
	// in-flight windows completed, so with a persistent response cache
	// and Matcher.Parallelism <= 1 every billed call is journaled and a
	// resume's ledger converges for every K. Without a journal that
	// spend is missing from the partial report's ledger — the
	// under-attribution core.Resolve documents for parallel batches.
	InFlightWindows int
	// Progress, if non-nil, receives stage updates. It is called from
	// the goroutine that called Run (never concurrently).
	Progress func(Progress)
	// OnPair, if non-nil, is called once per candidate with its final
	// prediction, in candidate order, as each window commits. It lets
	// callers sink results incrementally without holding every pair.
	OnPair func(entity.Pair, entity.Label)
	// Prefilter, if non-nil, routes every candidate window through the
	// calibrated cascade pre-filter before matching: pairs outside its
	// (tau-lo, tau-hi) band are auto-resolved for free and only the
	// ambiguous band reaches the matcher (and, with Matcher.CheapModel
	// set, the LLM tiers behind it). Journal coordinates of a cascade
	// run are in ambiguous pairs — the pre-filter is deterministic and
	// its fingerprint is stamped into the run meta, so a resume
	// re-derives the identical routing and replays only what was
	// actually matched. Resuming under a different pre-filter or tier
	// configuration fails with runstore.ErrRunMismatch.
	Prefilter *cascade.Prefilter
	// Shard, when enabled (Count > 0), restricts the run to the windows
	// the spec owns: the candidate stream is walked in full, each window
	// is assigned by hashing its first pair's key (shard.Assign), and
	// non-owned windows are skipped without routing, matching, or
	// journaling. Journal coordinates become shard-local — the journal
	// records only owned windows, each stamped with its global stream
	// position and partition key — and the spec is fingerprinted into
	// RunMeta, so resuming under a different spec fails with
	// runstore.ErrRunMismatch. Count > 1 requires StreamWindow > 0
	// (a single window leaves nothing to split).
	// The merge half lives in internal/shard.
	Shard shard.Spec
	// Journal, if non-nil, records the run durably and enables resume.
	// A fresh journal is stamped with the run's fingerprint (matcher
	// config, window size, pool mode, table hash); an already-populated
	// one must carry a compatible fingerprint or Run fails with
	// runstore.ErrRunMismatch before spending anything. Journaled pairs
	// are replayed — OnPair still fires for them, in order — and their
	// billed cost re-enters the ledger via MergeAPI exactly once.
	// Replayed candidates count into Progress.Replayed and
	// Report.Replayed so callers can distinguish replays from fresh
	// matching. The journal is not closed by Run; the caller owns it.
	Journal *runstore.Journal
}

// Progress is a point-in-time snapshot of a run, delivered to
// Config.Progress after setup, after every committed window, and once
// more when the run completes.
type Progress struct {
	// Blocked is the number of candidate pairs generated so far.
	Blocked int
	// BlockingDone reports whether candidate generation has finished.
	BlockingDone bool
	// Matched is the number of candidates with predictions so far,
	// replayed ones included.
	Matched int
	// Replayed is how many of Matched were served from the run journal
	// rather than matched in this process.
	Replayed int
	// Windows is the number of completed windows.
	Windows int
	// APIUSD is the API spend so far, in dollars. Replayed windows
	// contribute the spend their original run billed.
	APIUSD float64
	// Degraded is the number of committed windows so far containing at
	// least one batch answered by the degradation policy
	// (core.Config.Degrade) instead of the LLM.
	Degraded int
	// InFlight is the number of windows still executing when the window
	// just committed released its slot. Always 0 at InFlightWindows <= 1;
	// above that it is a timing-dependent snapshot, like Blocked, and is
	// excluded from any determinism contract.
	InFlight int
}

// Match is one output match.
type Match struct {
	IDA, IDB string
}

// Report is the outcome of a pipeline run.
type Report struct {
	// Candidates is the number of blocked candidate pairs.
	Candidates int
	// Matches lists the record ID pairs predicted to match.
	Matches []Match
	// Result is the aggregate across windows: predictions concatenated
	// in candidate order; ledger, token, trim, label and degraded
	// counters summed. Batches, BatchMargins and LabeledPool are nil for
	// every StreamWindow — their indices are window-local.
	Result *core.Result
	// BlockingTime and MatchingTime are the stage wall-clock durations:
	// start to end of the candidate stream (waits to hand a full window
	// off included), and first window dispatched to last one committed.
	// The stages overlap, so the two may sum to more than the run took.
	BlockingTime, MatchingTime time.Duration
	// Windows is the number of windows committed (0 when blocking found
	// nothing). The window a failed run stopped in is folded into Result
	// and emitted to OnPair but not counted; on a shard run only the
	// windows this shard owns count.
	Windows int
	// WindowsTotal is the total number of windows the candidate stream
	// produced, owned or not. It equals Windows except on shard runs,
	// and is set only when the run completes (partial reports leave it
	// zero).
	WindowsTotal int
	// PeakBuffered is the high-water mark of candidate pairs in windows
	// admitted for execution and not yet committed: at most
	// InFlightWindows*StreamWindow, every candidate when StreamWindow <= 0.
	// The window being filled is extra: memory peaks one StreamWindow higher.
	PeakBuffered int
	// Replayed is the number of candidates whose predictions were
	// replayed from the run journal instead of matched in this process.
	// On cascade runs it counts replayed ambiguous pairs; auto-resolved
	// pairs are re-routed locally on every run and never counted.
	Replayed int
	// AutoResolved is the number of candidates the cascade pre-filter
	// answered without any LLM call. Zero when Config.Prefilter is nil.
	AutoResolved int
	// Degraded is the number of committed windows containing at least one
	// batch answered by the degradation policy (Matcher.Degrade) instead
	// of the LLM. Degraded batches are journaled as repairable
	// placeholders that do not complete their window, so a later resume
	// over the same journal re-resolves them once the backend recovers —
	// a report with Degraded > 0 is complete but not authoritative.
	// Result.Degraded holds the finer batch-level count.
	Degraded int
}

// Run executes blocking and matching over the two tables. Cancelling ctx
// aborts blocking between candidate yields and matching between LLM
// calls; a window already dispatched finishes its CPU-only preparation
// first (see inflight.run).
//
// On mid-matching failure (including cancellation) Run returns the
// partial Report accumulated so far alongside the error, mirroring
// core.Resolve's partial-result contract: predictions answered before
// the failure are kept (the failed window's unanswered candidates stay
// Unknown), the ledger reflects what was actually billed, and OnPair
// still fires for those candidates. Failures before any window was
// folded — a dead ctx, a blocking error or cap trip with no completed
// window, a first window that could not be prepared — return a nil
// Report, so check it for nil before reading partial state.
func Run(ctx context.Context, cfg Config, client llm.Client, tableA, tableB []entity.Record) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	blocker := cfg.Blocker
	if blocker == nil {
		blocker = &blocking.TokenBlocker{MinShared: 2, MaxPostings: 512}
	}
	if cfg.Shard.Enabled() {
		if err := cfg.Shard.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		if cfg.Shard.Count > 1 && cfg.StreamWindow <= 0 {
			return nil, fmt.Errorf("pipeline: shard %s requires StreamWindow > 0 (collected mode is a single window)", cfg.Shard)
		}
	}
	f := core.NewFromConfig(client, cfg.Matcher)
	if err := prepareJournal(cfg, f, tableA, tableB); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return newExecutor(cfg, f).run(ctx, blocker, tableA, tableB)
}

// emitPairs reports one window's predictions: Matches collects the
// Match ones, OnPair observes every pair (Unknown where a run failed).
func emitPairs(cfg Config, rep *Report, pairs []entity.Pair, preds []entity.Label) {
	for i, p := range pairs {
		if preds[i] == entity.Match {
			rep.Matches = append(rep.Matches, Match{IDA: p.A.ID, IDB: p.B.ID})
		}
		if cfg.OnPair != nil {
			cfg.OnPair(p, preds[i])
		}
	}
}

// foldWindow folds one window's (possibly partial) result into the
// run aggregate. With a shared pool (sharedLabeled non-nil) windows
// annotate overlapping demonstrations, so each distinct pool pair is
// billed once across the whole run, as an unwindowed resolution would;
// self-pooled windows are disjoint and their label costs sum directly.
// Every window of every run commits through this one helper, which
// fixes the floating-point fold order of dollar totals.
func foldWindow(agg, res *core.Result, sharedLabeled map[int]bool) {
	agg.Pred = append(agg.Pred, res.Pred...)
	agg.PromptTokens += res.PromptTokens
	agg.TrimmedDemos += res.TrimmedDemos
	agg.Degraded += res.Degraded
	if sharedLabeled != nil {
		agg.Ledger.MergeAPI(&res.Ledger)
		fresh := 0
		for _, di := range res.LabeledPool {
			if !sharedLabeled[di] {
				sharedLabeled[di] = true
				fresh++
			}
		}
		agg.Ledger.AddLabels(fresh)
		agg.DemosLabeled += fresh
	} else {
		agg.Ledger.Merge(&res.Ledger)
		agg.DemosLabeled += res.DemosLabeled
	}
}

// Summary renders a one-paragraph report.
func (r *Report) Summary() string {
	s := fmt.Sprintf("pipeline: %d candidates (blocked in %v), %d matches (matched in %v), %s",
		r.Candidates, r.BlockingTime.Round(time.Millisecond),
		len(r.Matches), r.MatchingTime.Round(time.Millisecond),
		r.Result.Ledger.String())
	if r.Degraded > 0 {
		s += fmt.Sprintf(", %d degraded windows (re-run with the same journal to repair)", r.Degraded)
	}
	return s
}
