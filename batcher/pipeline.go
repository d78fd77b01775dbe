package batcher

import (
	"context"
	"fmt"
	"path/filepath"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/llm"
	"batcher/internal/pipeline"
	"batcher/internal/runstore"
)

// PipelineConfig wires a blocker and a matcher into the end-to-end ER
// system of the paper's Section II-A.
type PipelineConfig struct {
	// BlockAttr is the blocking key attribute (empty = all attributes).
	BlockAttr string
	// MinSharedTokens is the token-overlap threshold (default 2).
	MinSharedTokens int
	// UseMinHash switches to MinHash LSH blocking, which scales better
	// on large tables and tolerates lower overlap.
	UseMinHash bool
	// MaxCandidates aborts the run if blocking produces more pairs
	// (budget guard). Zero disables. The guard trips incrementally, as
	// soon as the cap is crossed.
	MaxCandidates int
	// Matcher options applied to the BATCHER stage.
	Matcher []Option
	// Pool supplies labeled pairs for demonstration annotation; nil uses
	// the candidates themselves (unsupervised mode).
	Pool []Pair
	// StreamWindow is the window size in candidate pairs: each window is
	// batched, annotated and matched on its own while blocking fills the
	// next, so blocking and matching overlap in time and peak candidate
	// memory is bounded by the windows in flight instead of |A|x|B|.
	// Zero or less means a single window holding every candidate — the
	// paper's collect-then-match semantics. Batching and demonstration
	// selection see one window at a time, so predictions differ between
	// StreamWindow values.
	StreamWindow int
	// InFlightWindows is how many windows may execute at once; values
	// below 1 mean 1. Each in-flight window's CPU-bound preparation
	// overlaps the other windows' LLM calls, while an ordered committer
	// keeps every output — predictions, hooks, ledger, journal bytes —
	// identical for every value. Peak candidate memory is up to
	// (InFlightWindows+1) x StreamWindow; with a single window the value
	// has no effect.
	InFlightWindows int
	// Progress, if non-nil, receives stage snapshots as the run
	// advances (never concurrently).
	Progress func(PipelineProgress)
	// OnPair, if non-nil, is called once per candidate with its final
	// prediction, in candidate order, as each window commits.
	// Use it to sink results incrementally without buffering every pair.
	OnPair func(Pair, Label)
	// Prefilter, if non-nil, routes candidates before any LLM spend:
	// pairs the calibrated pre-filter scores outside its ambiguous band
	// are auto-resolved for free (Report.AutoResolved counts them), and
	// only the ambiguous band reaches the matcher. Train one with
	// TrainCascadePrefilter; combine with WithCheapModel for the full
	// model cascade. Journaled runs stamp the pre-filter's fingerprint,
	// so resuming with different routing fails with ErrRunMismatch.
	Prefilter *CascadePrefilter
	// Journal, if non-nil, makes the run durable and resumable: every
	// completed batch is recorded as it lands, and a later run over the
	// same journal replays what was already answered instead of
	// re-billing it, continuing from the first unanswered window. Open
	// one with OpenRunJournal; pair it with NewDiskCachedClient so even
	// the partially answered window resumes for free. The caller owns
	// the journal and must Close it after the run.
	Journal *RunJournal
	// Shard, if non-zero, runs only the candidate windows this shard
	// owns: windows whose partition key hashes to Shard.Index modulo
	// Shard.Count. Requires StreamWindow > 0 when Count > 1. Each shard
	// needs its own Journal; crash and resume work per shard, and the
	// shard spec is stamped into the journal fingerprint so a journal
	// cannot be resumed under a different spec. Combine the completed
	// shard journals with MergeShardRuns.
	Shard ShardSpec
}

// PipelineReport is the outcome of RunPipeline.
type PipelineReport = pipeline.Report

// PipelineMatch is one matched record ID pair.
type PipelineMatch = pipeline.Match

// PipelineProgress is a point-in-time snapshot of a pipeline run.
type PipelineProgress = pipeline.Progress

// RunPipeline blocks the two tables and matches the candidates.
// Cancelling ctx aborts blocking between candidate yields and the
// matching stage between LLM calls. On mid-matching failure the partial
// report (billed spend, answered predictions) is returned alongside the
// error; failures before any window was folded return a nil report.
func RunPipeline(ctx context.Context, cfg PipelineConfig, client Client, tableA, tableB []Record) (*PipelineReport, error) {
	var blocker blocking.Blocker
	minShared := cfg.MinSharedTokens
	if minShared <= 0 {
		minShared = 2
	}
	if cfg.UseMinHash {
		blocker = &blocking.MinHashBlocker{Attr: cfg.BlockAttr}
	} else {
		blocker = &blocking.TokenBlocker{Attr: cfg.BlockAttr, MinShared: minShared, MaxPostings: 512}
	}
	mcfg := core.Config{Batching: DiversityBatching, Selection: CoveringSelection}
	for _, opt := range cfg.Matcher {
		opt(&mcfg)
	}
	return pipeline.Run(ctx, pipeline.Config{
		Blocker:         blocker,
		Matcher:         mcfg,
		Pool:            cfg.Pool,
		MaxCandidates:   cfg.MaxCandidates,
		StreamWindow:    cfg.StreamWindow,
		InFlightWindows: cfg.InFlightWindows,
		Prefilter:       cfg.Prefilter,
		Progress:        cfg.Progress,
		OnPair:          cfg.OnPair,
		Journal:         cfg.Journal,
		Shard:           cfg.Shard,
	}, client, tableA, tableB)
}

// RunJournal is a durable, append-only record of one pipeline run:
// every answered batch with its predictions, token usage, and cost
// delta. Passing it in PipelineConfig.Journal makes the run resumable
// after a crash or interrupt.
type RunJournal = runstore.Journal

// RunMeta is the run fingerprint stamped into a journal; resuming
// requires a compatible fingerprint (same tables, model, seed, window
// size, pool mode).
type RunMeta = runstore.RunMeta

// ErrRunMismatch is returned when a journal cannot be resumed by the
// current run: its fingerprint or candidate stream differs.
var ErrRunMismatch = runstore.ErrRunMismatch

// OpenRunJournal opens the journal for runID stored under dir (at
// dir/runID), creating it if absent. With resume false an existing
// journal that already holds records is refused, so two different
// experiments cannot silently interleave under one run ID; with resume
// true its state is replayed by the next RunPipeline over it. A journal
// directory is owned by one process at a time. ctx bounds the replay of
// existing journal segments at open.
func OpenRunJournal(ctx context.Context, dir, runID string, resume bool) (*RunJournal, error) {
	if runID == "" {
		return nil, fmt.Errorf("batcher: empty run ID")
	}
	j, err := runstore.OpenJournal(ctx, filepath.Join(dir, runID))
	if err != nil {
		return nil, err
	}
	if !resume && !j.State().Empty() {
		j.Close()
		return nil, fmt.Errorf("batcher: run %q already has journaled state; resume it or pick a new run ID", runID)
	}
	return j, nil
}

// DiskCache is a persistent LLM response cache: llm hits survive process
// restarts and can be shared (sequentially) across experiments. Cache
// hits bill zero tokens and are excluded from the ledger's call count.
type DiskCache = runstore.Cache

// NewDiskCachedClient wraps a client with a disk-backed response cache
// stored in dir, content-addressed by the full request (model, system
// prompt, prompt, temperature, max-tokens). maxBytes bounds the store
// (<= 0 uses a 256 MiB default); least-recently-used responses are
// compacted away past the bound. Close it after the run to flush. ctx
// bounds the replay of existing cache segments at open.
func NewDiskCachedClient(ctx context.Context, inner Client, dir string, maxBytes int64) (*DiskCache, error) {
	return runstore.OpenCache(ctx, inner, dir, maxBytes)
}

// WithParallelism dispatches up to n batch prompts concurrently. Results
// are identical to sequential execution; only wall-clock changes.
func WithParallelism(n int) Option { return core.WithParallelism(n) }

// NewCachedClient wraps any client with an LRU response cache: repeated
// identical prompts are served locally and bill zero tokens.
func NewCachedClient(inner Client, maxEntries int) Client {
	return llm.NewCached(inner, maxEntries)
}

// NewRateLimitedClient wraps a client with a requests-per-minute token
// bucket, matching proprietary API quotas.
func NewRateLimitedClient(inner Client, requestsPerMinute int) Client {
	return llm.NewRateLimited(inner, requestsPerMinute)
}

// NewRetryingClient wraps a client with bounded exponential-backoff
// retries on transient errors.
func NewRetryingClient(inner Client, maxAttempts int) Client {
	return llm.NewRetrying(inner, maxAttempts, 0)
}
