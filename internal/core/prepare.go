package core

import (
	"context"

	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
)

// Prepared is the CPU-bound front half of a resolution, kept apart from
// its execution so the pipeline's executor can run it concurrently with
// other windows' LLM calls: feature extraction, question batching, and
// demonstration selection are done; no LLM call has been made and
// nothing has been billed yet. Run is the execution half; Start binds it
// to a context behind a Stream.
//
// A Prepared is immutable after Prepare returns and must be Run (or its
// Stream ranged) at most once.
type Prepared struct {
	f         *Framework
	questions []entity.Pair
	pool      []entity.Pair
	batches   Batches
	sel       selection
	model     llm.Model
	// cheap is the cascade's cheap tier and margins its per-batch vote-k
	// margins, aligned with batches; both are set only on a tiered run
	// (Config.CheapModel), and cascade says whether this is one.
	cheap   llm.Model
	margins []float64
	cascade bool
}

// Prepare runs the CPU-bound front half of a resolution: feature
// extraction, batching, partition verification, demonstration
// selection, and model lookup, plus the vote-k margins a tiered run
// routes on. It makes no LLM calls and bills nothing.
// Setup failures (a dead ctx, an unknown model, a broken partition)
// surface here, before any batch can run.
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
	qVecs := feature.ExtractAll(cfg.Extractor, questions)
	// A self-pooled window (the pipeline without a Config.Pool) passes
	// one slice as both arguments; its vectors are extracted once and its
	// distances measured once, for clustering and covering together. Both
	// sides are only ever read.
	selfPooled := len(pool) == len(questions) && &pool[0] == &questions[0]
	dVecs := qVecs
	if !selfPooled {
		dVecs = feature.ExtractAll(cfg.Extractor, pool)
	}
	geo := windowGeometry(cfg, qVecs, dVecs, selfPooled)

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
		p.margins = voteMargins(cfg, batches, qVecs, dVecs, p.sel.labeled)
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
		Pred: make([]entity.Label, len(p.questions)),
	}
	for i := range res.Pred {
		res.Pred[i] = entity.Unknown
	}
	// Annotation happens up front, as in Figure 2's "Manual Labeling".
	res.Ledger.AddLabels(len(p.sel.labeled))
	return res
}

// Start binds ctx to a Stream over this run and starts nothing: the run
// happens while the Stream's All is ranged, and cancelling ctx stops it
// at the next batch boundary. An empty question set yields an empty
// Stream.
func (p *Prepared) Start(ctx context.Context) *Stream {
	if ctx == nil {
		ctx = context.Background()
	}
	st := &Stream{prep: p}
	st.all = func(yield func(BatchResult) bool) { st.run(ctx, yield) }
	return st
}
