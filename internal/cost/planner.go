package cost

import "fmt"

// Plan projects the monetary cost of an ER campaign before running it —
// the calculation the paper's introduction walks through for the 500k-
// prediction example. All token figures are per-item estimates the caller
// measures on a sample (see batcher.EstimateCost).
type Plan struct {
	// Questions is the number of candidate pairs to resolve.
	Questions int
	// BatchSize is questions per prompt (1 = standard prompting).
	BatchSize int
	// TokensPerPair is the serialized-pair token estimate.
	TokensPerPair int
	// DescriptionTokens is the task-description overhead per prompt.
	DescriptionTokens int
	// DemosPerPrompt is the demonstration count attached to each prompt.
	DemosPerPrompt int
	// OutputTokensPerQuestion estimates the completion share per question.
	OutputTokensPerQuestion int
	// LabeledDemos is the number of distinct demonstrations to annotate.
	LabeledDemos int
	// Pricing is the model's rate card.
	Pricing Pricing
}

// Prompts returns the number of API calls the plan implies.
func (p Plan) Prompts() int {
	b := p.BatchSize
	if b <= 0 {
		b = 1
	}
	return (p.Questions + b - 1) / b
}

// InputTokens projects total prompt tokens: every prompt carries the
// task description and its demonstrations, and every question is
// serialized exactly once — so a partial last batch is billed for the
// questions it holds, and BatchSize <= 0 bills like 1, as in Prompts.
func (p Plan) InputTokens() int {
	perPrompt := p.DescriptionTokens + p.DemosPerPrompt*p.TokensPerPair
	return p.Prompts()*perPrompt + p.Questions*p.TokensPerPair
}

// OutputTokens projects total completion tokens.
func (p Plan) OutputTokens() int {
	return p.Questions * p.OutputTokensPerQuestion
}

// APIDollars projects the API charge.
func (p Plan) APIDollars() float64 {
	return p.Pricing.APICost(p.InputTokens(), p.OutputTokens())
}

// LabelDollars projects the annotation charge.
func (p Plan) LabelDollars() float64 {
	return float64(p.LabeledDemos) * LabelPerPair
}

// TotalDollars projects the full campaign cost.
func (p Plan) TotalDollars() float64 { return p.APIDollars() + p.LabelDollars() }

// String renders the projection.
func (p Plan) String() string {
	return fmt.Sprintf("plan: %d questions in %d prompts, ~%d in / %d out tokens, api=$%.2f label=$%.2f total=$%.2f",
		p.Questions, p.Prompts(), p.InputTokens(), p.OutputTokens(),
		p.APIDollars(), p.LabelDollars(), p.TotalDollars())
}

// CompareBatchSizes returns the projected total for each candidate batch
// size, holding everything else fixed — the planning sweep behind the
// paper's batch-size choice.
func (p Plan) CompareBatchSizes(sizes []int) map[int]float64 {
	out := make(map[int]float64, len(sizes))
	for _, b := range sizes {
		q := p
		q.BatchSize = b
		out[b] = q.TotalDollars()
	}
	return out
}
