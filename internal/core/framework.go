package core

import (
	"context"
	"errors"
	"fmt"

	"batcher/internal/cost"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/prompt"
)

// Framework is a configured BATCHER instance bound to an LLM client.
type Framework struct {
	cfg    Config
	client llm.Client
}

// NewFromConfig returns a Framework over client from an explicit
// Config, with every unset field resolved to the paper's defaults:
// NewFromConfig(client, Config{}) is the paper's experimental setup.
// The facade's functional options are closures over this Config.
func NewFromConfig(client llm.Client, cfg Config) *Framework {
	return &Framework{cfg: cfg.applyDefaults(), client: client}
}

// Config returns the effective configuration (defaults applied).
func (f *Framework) Config() Config { return f.cfg }

// Result is the outcome of resolving a question set.
type Result struct {
	// Pred holds one label per input question, aligned by index. Unknown
	// means the LLM's answer was missing or unparseable; metrics treat it
	// as a non-match.
	Pred []entity.Label
	// Batches records the generated question batches (index lists).
	Batches Batches
	// DemosLabeled is the number of distinct pool pairs annotated.
	DemosLabeled int
	// LabeledPool lists the pool indices of those annotated pairs, in
	// ascending order. Callers that resolve several question sets over
	// one shared pool use it to avoid double-counting labeling spend.
	LabeledPool []int
	// Ledger accumulates the run's monetary cost.
	Ledger cost.Ledger
	// PromptTokens is the total input tokens across batch prompts.
	PromptTokens int
	// TrimmedDemos counts demonstrations dropped to fit context windows.
	TrimmedDemos int
	// BatchMargins records each batch's vote-k disagreement margin,
	// aligned with Batches. Populated as batches complete (entries for
	// batches that never completed stay 0); nil on aggregated results
	// whose batches span several streams.
	BatchMargins []float64
	// Degraded counts batches answered by the degradation policy
	// instead of the LLM (see Config.Degrade); their predictions are
	// placeholders a later resume can repair.
	Degraded int
}

// Apply folds one completed batch into the result: predictions, API
// cost, token and trim counters, and the batch's vote margin. Pair it
// with Stream.NewResult to accumulate a streaming run incrementally.
func (r *Result) Apply(br BatchResult) {
	for i, qi := range br.Questions {
		r.Pred[qi] = br.Pred[i]
	}
	r.Ledger.Merge(&br.Ledger)
	r.PromptTokens += br.InputTokens
	r.TrimmedDemos += br.TrimmedDemos
	if br.Degraded {
		r.Degraded++
	}
	if br.Index >= 0 && br.Index < len(r.BatchMargins) {
		r.BatchMargins[br.Index] = br.VoteMargin
	}
}

// Resolve answers every question using batch prompting over the unlabeled
// demonstration pool. The pool pairs carry hidden gold labels (Truth);
// the framework reads a label only when it "annotates" the pair, and each
// annotation is charged to the ledger once.
//
// Resolve is Prepare followed by Prepared.Run folding each batch straight
// into the Result (no goroutine, no channel, at Parallelism 1): on
// mid-run failure (including ctx cancellation) it returns the partial
// Result accumulated so far together with Run's *BatchError. The partial
// Result covers every batch below BatchError.Batch — sequentially that
// is every batch that completed; under parallelism, completions above
// the first failed batch are dropped (Run's contiguous-prefix rule), so
// real API spend can exceed the partial ledger by those in-flight calls.
// Setup-phase failures — a cancelled ctx before any batch started, an
// unknown model, a broken partition — return a nil Result and a bare
// error instead, so check the Result for nil (or errors.As for
// *BatchError) before reading partial predictions.
func (f *Framework) Resolve(ctx context.Context, questions, pool []entity.Pair) (*Result, error) {
	p, err := f.Prepare(ctx, questions, pool)
	if err != nil {
		return nil, err
	}
	res := p.NewResult()
	return res, p.Run(ctx, res.Apply)
}

// annotate reveals gold labels for the selected pool pairs, producing
// prompt demonstrations.
func (f *Framework) annotate(pool []entity.Pair, ids []int) []prompt.Demo {
	demos := make([]prompt.Demo, 0, len(ids))
	for _, di := range ids {
		p := pool[di]
		label := p.Truth
		if label == entity.Unknown {
			// An unannotatable pair (no gold label in the pool) defaults
			// to non-match, the majority class.
			label = entity.NonMatch
		}
		demos = append(demos, prompt.Demo{Pair: p, Label: label})
	}
	return demos
}

// callWithTrim sends the batch prompt, dropping demonstrations from the
// tail until the prompt fits the model's context window. This is the
// mitigation for the input-length overrun risk Section IV-C attributes to
// topk-question selection. It returns the response and how many demos
// were dropped. tier stamps the request for tier routing (llm.NewTiered)
// and cache identity; single-model runs pass llm.TierDefault.
func (f *Framework) callWithTrim(ctx context.Context, model llm.Model, tier llm.Tier, demos []prompt.Demo, qs []entity.Pair) (llm.Response, int, error) {
	trimmed := 0
	format := prompt.TextAnswers
	if f.cfg.JSONAnswers {
		format = prompt.JSONAnswers
	}
	for {
		p := prompt.BuildWithFormat(f.cfg.TaskDescription, demos, qs, format)
		resp, err := f.client.Complete(ctx, llm.Request{
			Model:       model.Name,
			Prompt:      p.Text,
			Temperature: f.cfg.Temperature,
			Tier:        tier,
		})
		if err == nil {
			return resp, trimmed, nil
		}
		if !errors.Is(err, llm.ErrContextLength) {
			return llm.Response{}, trimmed, err
		}
		if len(demos) == 0 {
			// Even the bare prompt is too long; split the batch in half
			// and merge answers.
			if len(qs) <= 1 {
				return llm.Response{}, trimmed, err
			}
			mid := len(qs) / 2
			left, tl, err := f.callWithTrim(ctx, model, tier, nil, qs[:mid])
			if err != nil {
				return llm.Response{}, trimmed, err
			}
			right, tr, err := f.callWithTrim(ctx, model, tier, nil, qs[mid:])
			if err != nil {
				return llm.Response{}, trimmed, err
			}
			merged := mergeResponses(left, right, mid, len(qs)-mid)
			return merged, trimmed + tl + tr, nil
		}
		demos = demos[:len(demos)-1]
		trimmed++
	}
}

// mergeResponses renumbers and concatenates two split-batch completions so
// answer parsing sees a single consistent numbering.
func mergeResponses(left, right llm.Response, leftN, rightN int) llm.Response {
	leftLabels := prompt.ParseAnswersAny(left.Completion, leftN)
	rightLabels := prompt.ParseAnswersAny(right.Completion, rightN)
	// Copy into a fresh slice: appending to leftLabels could alias its
	// backing array and clobber it for any other holder.
	all := make([]entity.Label, 0, len(leftLabels)+len(rightLabels))
	all = append(all, leftLabels...)
	all = append(all, rightLabels...)
	return llm.Response{
		Completion:   prompt.FormatAnswers(all),
		InputTokens:  left.InputTokens + right.InputTokens,
		OutputTokens: left.OutputTokens + right.OutputTokens,
		// Only a fully cache-served split is free; a half-fresh merge
		// carries the fresh half's billed tokens and counts as a call.
		CacheHit: left.CacheHit && right.CacheHit,
	}
}

// checkPartition verifies the batching invariant: every question appears
// in exactly one batch.
func checkPartition(batches Batches, n int) error {
	seen := make([]bool, n)
	total := 0
	for _, b := range batches {
		for _, qi := range b {
			if qi < 0 || qi >= n {
				return fmt.Errorf("core: batch references question %d outside [0,%d)", qi, n)
			}
			if seen[qi] {
				return fmt.Errorf("core: question %d appears in two batches", qi)
			}
			seen[qi] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("core: batches cover %d of %d questions", total, n)
	}
	return nil
}
