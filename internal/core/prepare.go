package core

import (
	"context"

	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
)

// Prepared is the CPU-bound front half of a resolution, split out of
// ResolveStream so the pipeline's executor can run it concurrently with
// other windows' LLM calls: feature extraction, question batching, and
// demonstration selection are done; no LLM call has been made and
// nothing has been billed yet. Start launches the execution half.
//
// A Prepared is immutable after Prepare returns and must be Started at
// most once.
type Prepared struct {
	f         *Framework
	questions []entity.Pair
	pool      []entity.Pair
	batches   Batches
	sel       selection
	model     llm.Model
	// cheap is the cascade's cheap tier; valid only when cascade is set.
	cheap   llm.Model
	cascade bool
}

// Prepare runs the CPU-bound front half of a resolution: entity
// profiles (from ctx via feature.WithProfiles, or built fresh), feature
// extraction, batching, partition verification, demonstration
// selection, and model lookup. It makes no LLM calls and bills nothing.
// Setup failures (a dead ctx, an unknown model, a broken partition)
// surface here, exactly the errors ResolveStream reports before
// streaming starts.
func (f *Framework) Prepare(ctx context.Context, questions, pool []entity.Pair) (*Prepared, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &Prepared{f: f, questions: questions, pool: pool}
	if len(questions) == 0 {
		return p, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := f.cfg
	// Feature extraction runs on entity profiles computed once per
	// record and shared between the question and pool sides. A pipeline
	// producer that pre-built this window's profiles hands them down via
	// feature.WithProfiles on ctx; otherwise a resolution-local cache is
	// built here and dropped with the call.
	ps := feature.ProfilesFrom(ctx)
	if ps == nil {
		ps = feature.NewProfiles(cfg.Extractor)
	}
	qVecs := feature.ExtractAllWith(ps, cfg.Extractor, questions)
	// A self-pooled window (the pipeline without a Config.Pool) passes
	// one slice as both arguments; its vectors are extracted once and its
	// distances measured once, for clustering and covering together. Both
	// sides are only ever read.
	selfPooled := len(pool) == len(questions) && &pool[0] == &questions[0]
	dVecs := qVecs
	if !selfPooled {
		dVecs = feature.ExtractAllWith(ps, cfg.Extractor, pool)
	}
	geo := windowGeometry(cfg, qVecs, selfPooled)

	batches := makeBatches(cfg, len(qVecs), geo)
	if err := checkPartition(batches, len(questions)); err != nil {
		return nil, err
	}
	p.sel = selectDemos(cfg, batches, qVecs, dVecs, pool, geo)
	model, err := llm.Lookup(cfg.Model)
	if err != nil {
		return nil, err
	}
	if cfg.CheapModel != "" {
		cheap, err := llm.Lookup(cfg.CheapModel)
		if err != nil {
			return nil, err
		}
		p.cheap = cheap
		p.cascade = true
	}
	p.batches = batches
	p.model = model
	return p, nil
}

// Batches returns the planned question batches (empty for an empty
// question set). Available before any LLM call is made.
func (p *Prepared) Batches() Batches { return p.batches }

// LabeledPool returns the pool indices selected for annotation, in
// ascending order. The slice is shared; callers must not mutate it.
func (p *Prepared) LabeledPool() []int { return p.sel.labeled }

// Start launches the LLM execution half and returns its Stream, which
// yields each batch's predictions, token usage, and cost delta in
// ascending batch order. The Stream must be consumed or Closed. An empty
// question set returns an already-exhausted Stream.
//
// Cancellation contract (the one every caller of a Stream inherits:
// Resolve, ResolveStream, and the pipeline executor stopping sibling
// windows after a failure): cancelling ctx, its deadline passing, or
// Closing the Stream stops the run at the next batch boundary. No
// further batch starts, but a batch that has started finishes — its
// calls run under context.WithoutCancel(ctx), so an in-flight call ends
// by answering or by its client's own timeout, never by this
// cancellation. The batch is the unit of billing and of journaling: cut
// between a cascade's billed cheap call and its escalation, or inside a
// call the backend has already counted, its spend would reach no ledger
// and no journal, and a resume would pay for it a second time.
func (p *Prepared) Start(ctx context.Context) *Stream {
	if ctx == nil {
		ctx = context.Background()
	}
	st := &Stream{ch: make(chan BatchResult)}
	if len(p.questions) == 0 {
		st.cancel = func() {}
		close(st.ch)
		return st
	}
	runCtx, cancel := context.WithCancel(ctx)
	st.batches = p.batches
	st.labeledPool = p.sel.labeled
	st.cancel = cancel

	// Never spawn more workers than batches: a small run under high
	// parallelism would otherwise park idle goroutines on the jobs channel.
	workers := p.f.cfg.Parallelism
	if workers > len(p.batches) {
		workers = len(p.batches)
	}
	plan := &execPlan{
		f:         p.f,
		model:     p.model,
		cheap:     p.cheap,
		cascade:   p.cascade,
		batches:   p.batches,
		sel:       p.sel,
		questions: p.questions,
		pool:      p.pool,
	}
	if workers <= 1 {
		go st.runSequential(runCtx, plan)
	} else {
		go st.runParallel(runCtx, plan, workers)
	}
	return st
}
