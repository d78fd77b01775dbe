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

// Result is the outcome of resolving a question set, holding only what
// adds up across windows: when a pipeline splits a run into windows,
// its Report.Result concatenates their predictions and sums the rest.
// What belongs to one window's plan stays on Prepared: Batches,
// LabeledPool and, on tiered runs only, each batch's vote-k margin.
type Result struct {
	// Pred holds one label per input question, aligned by index. Unknown
	// means the LLM's answer was missing or unparseable; metrics treat it
	// as a non-match.
	Pred []entity.Label
	// DemosLabeled is the number of distinct pool pairs annotated.
	DemosLabeled int
	// Ledger accumulates the run's monetary cost.
	Ledger cost.Ledger
	// PromptTokens is the total input tokens across batch prompts.
	PromptTokens int
	// TrimmedDemos counts demonstrations dropped to fit context windows.
	TrimmedDemos int
	// Degraded counts batches answered by the degradation policy
	// instead of the LLM (see Config.Degrade); their predictions are
	// placeholders a later resume can repair.
	Degraded int
}

// Apply folds one completed batch into the result: predictions, API
// cost, and the token, trim and degraded counters. Pair it with
// Prepared.NewResult to accumulate a run batch by batch as Run
// delivers them.
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

// ask answers qs on model and tier, one label per question. Each call
// that returns is billed to br there and then: its tokens always, and a
// ledger call under tier's name unless the cache served it (a
// cache-served answer made no API call). When a prompt overruns the
// model's context window, ask drops demonstrations from the tail until
// it fits — the mitigation for the input-length overrun risk Section
// IV-C attributes to topk-question selection — and, once none are left,
// asks each half of the batch on its own and joins their labels.
// br.TrimmedDemos counts the demonstrations dropped from a prompt once
// its questions have been answered. Single-model runs pass
// llm.TierDefault; tier also stamps the request for tier routing
// (llm.NewTiered) and cache identity.
func (f *Framework) ask(ctx context.Context, model llm.Model, tier llm.Tier, demos []prompt.Demo, qs []entity.Pair, br *BatchResult) ([]entity.Label, error) {
	const temperature = 0.01 // the paper's sampling temperature
	format := prompt.TextAnswers
	if f.cfg.JSONAnswers {
		format = prompt.JSONAnswers
	}
	for trimmed := 0; ; trimmed++ {
		p := prompt.BuildWithFormat(f.cfg.TaskDescription, demos, qs, format)
		resp, err := f.client.Complete(ctx, llm.Request{
			Model:       model.Name,
			Prompt:      p.Text,
			Temperature: temperature,
			Tier:        tier,
		})
		switch {
		case err == nil:
			br.InputTokens += resp.InputTokens
			br.OutputTokens += resp.OutputTokens
			br.TrimmedDemos += trimmed
			if !resp.CacheHit {
				br.Ledger.AddTierCall(tierName(tier), model.Pricing, resp.InputTokens, resp.OutputTokens)
			}
			return prompt.ParseAnswersAny(resp.Completion, len(qs)), nil
		case !errors.Is(err, llm.ErrContextLength):
			return nil, err
		case len(demos) > 0:
			demos = demos[:len(demos)-1]
		case len(qs) <= 1:
			// Even a bare one-question prompt is too long.
			return nil, err
		default:
			mid := len(qs) / 2
			left, err := f.ask(ctx, model, tier, nil, qs[:mid], br)
			if err != nil {
				return nil, err
			}
			right, err := f.ask(ctx, model, tier, nil, qs[mid:], br)
			if err != nil {
				return nil, err
			}
			br.TrimmedDemos += trimmed
			return append(left, right...), nil
		}
	}
}

// tierName is the ledger's name for calls on tier: cost.TierCheap or
// cost.TierExpensive on a cascade run, empty (no tier bucket) on a
// single-model run.
func tierName(tier llm.Tier) string {
	switch tier {
	case llm.TierCheap:
		return cost.TierCheap
	case llm.TierExpensive:
		return cost.TierExpensive
	}
	return ""
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
