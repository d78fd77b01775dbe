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
// nothing has been billed yet. Run is the execution half; Start runs it
// behind a Stream.
//
// A Prepared is immutable after Prepare returns and must be Run (or
// Started) at most once.
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

// NewResult returns a Result primed for folding this run's batches: one
// Unknown prediction per question and the up-front labeling cost
// recorded. Feed each BatchResult to Result.Apply as it arrives — this
// is exactly how Resolve accumulates its return value.
func (p *Prepared) NewResult() *Result {
	res := &Result{
		Pred:         make([]entity.Label, len(p.questions)),
		Batches:      p.batches,
		DemosLabeled: len(p.sel.labeled),
		LabeledPool:  p.sel.labeled,
		BatchMargins: make([]float64, len(p.batches)),
	}
	for i := range res.Pred {
		res.Pred[i] = entity.Unknown
	}
	// Annotation happens up front, as in Figure 2's "Manual Labeling".
	res.Ledger.AddLabels(len(p.sel.labeled))
	return res
}

// Start runs Run on a goroutine of its own and returns a Stream that
// yields each batch as the consumer takes it — Run's contract, with
// Stream.Close as one more way to stop at the next batch boundary. The
// Stream must be consumed or Closed. An empty question set yields an
// exhausted Stream.
func (p *Prepared) Start(ctx context.Context) *Stream {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	st := &Stream{prep: p, ch: make(chan BatchResult), cancel: cancel}
	go func() {
		defer close(st.ch)
		defer cancel()
		st.setErr(p.Run(ctx, st.emit))
	}()
	return st
}
