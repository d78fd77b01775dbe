package baselines

import (
	"context"
	"fmt"
	"sort"

	"batcher/internal/cost"
	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
	"batcher/internal/prompt"
)

// ManualPrompt reproduces the LLM baseline of Narayan et al. [11]:
// standard prompting (one question per call) with expert-designed
// demonstrations, manualDemos of them. The "expert" is simulated by a
// k-center sweep over the labeled reference set: it picks
// prototypical, well-spread examples of each class — exactly what a
// practitioner hand-curating a prompt does. It asks llm.DefaultModel at
// temperature 0.01 under prompt.DefaultTaskDescription. It has no
// settings; the zero value is the baseline.
type ManualPrompt struct{}

// manualDemos is ManualPrompt's total demonstration count (split
// across classes), matching the hand-written prompts of [11].
const manualDemos = 6

// Result carries predictions and cost for a ManualPrompt run.
type Result struct {
	Pred   []entity.Label
	Ledger cost.Ledger
}

// Run answers each question with standard prompting. reference supplies
// the labeled pairs the expert curates demonstrations from. Cancellation
// is checked between questions and aborts the run with ctx's error.
func (ManualPrompt) Run(ctx context.Context, questions, reference []entity.Pair, client llm.Client) (*Result, error) {
	model, err := llm.Lookup(llm.DefaultModel)
	if err != nil {
		return nil, err
	}
	demos := curateDemos(reference, manualDemos)
	res := &Result{Pred: make([]entity.Label, len(questions))}
	for i, q := range questions {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("baselines: question %d: %w", i, err)
		}
		p := prompt.Build(prompt.DefaultTaskDescription, demos, []entity.Pair{q})
		resp, err := client.Complete(ctx, llm.Request{Model: model.Name, Prompt: p.Text})
		if err != nil {
			return nil, fmt.Errorf("baselines: question %d: %w", i, err)
		}
		// A cache-served answer made no API call and is not billed.
		if !resp.CacheHit {
			res.Ledger.AddCall(model.Pricing, resp.InputTokens, resp.OutputTokens)
		}
		res.Pred[i] = prompt.ParseAnswers(resp.Completion, 1)[0]
	}
	return res, nil
}

// curateDemos simulates expert prompt design: per class, greedy
// k-center selection over structure-aware features yields k
// prototypical and diverse demonstrations in all.
func curateDemos(reference []entity.Pair, k int) []prompt.Demo {
	var pos, neg []entity.Pair
	for _, p := range reference {
		switch p.Truth {
		case entity.Match:
			pos = append(pos, p)
		case entity.NonMatch:
			neg = append(neg, p)
		}
	}
	kPos := k / 2
	kNeg := k - kPos
	ex := feature.NewLR()
	demos := make([]prompt.Demo, 0, k)
	for _, d := range kCenter(ex, pos, kPos) {
		demos = append(demos, prompt.Demo{Pair: d, Label: entity.Match})
	}
	for _, d := range kCenter(ex, neg, kNeg) {
		demos = append(demos, prompt.Demo{Pair: d, Label: entity.NonMatch})
	}
	return demos
}

// kCenter greedily picks k well-spread pairs: first the medoid, then
// repeatedly the pair farthest from the current selection.
func kCenter(ex feature.Extractor, pairs []entity.Pair, k int) []entity.Pair {
	if k <= 0 || len(pairs) == 0 {
		return nil
	}
	if k > len(pairs) {
		k = len(pairs)
	}
	vecs := feature.ExtractAll(ex, pairs)
	// Medoid: minimizes the sum of distances to all others. For large
	// inputs sample the comparison set for O(n*cap) behaviour.
	capN := len(vecs)
	if capN > 256 {
		capN = 256
	}
	best, bestSum := 0, -1.0
	for i := range vecs {
		var sum float64
		for j := 0; j < capN; j++ {
			sum += feature.Euclidean(vecs[i], vecs[j])
		}
		if bestSum < 0 || sum < bestSum {
			best, bestSum = i, sum
		}
	}
	selected := []int{best}
	minDist := make([]float64, len(vecs))
	for i := range minDist {
		minDist[i] = feature.Euclidean(vecs[i], vecs[best])
	}
	for len(selected) < k {
		far, farD := -1, -1.0
		for i, d := range minDist {
			if d > farD {
				far, farD = i, d
			}
		}
		selected = append(selected, far)
		for i := range minDist {
			if d := feature.Euclidean(vecs[i], vecs[far]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	sort.Ints(selected)
	out := make([]entity.Pair, len(selected))
	for i, si := range selected {
		out[i] = pairs[si]
	}
	return out
}
