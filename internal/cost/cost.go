// Package cost implements the paper's monetary cost model (Section VI-A):
// per-token API pricing for proprietary LLMs and per-pair labeling cost via
// crowdsourcing, plus a Ledger that accumulates both sides for an
// experiment run.
package cost

import "fmt"

// LabelPerPair is the paper's estimated cost of labeling one entity pair:
// AMT tasks at $0.08 for a batch of ten pairs -> $0.008 per pair.
const LabelPerPair = 0.008

// Pricing describes a model's API price in dollars per 1000 tokens.
type Pricing struct {
	// InputPer1K is the price of 1000 prompt tokens.
	InputPer1K float64
	// OutputPer1K is the price of 1000 completion tokens.
	OutputPer1K float64
}

// APICost returns the dollar cost of a call with the given token counts.
func (p Pricing) APICost(inputTokens, outputTokens int) float64 {
	return float64(inputTokens)/1000*p.InputPer1K + float64(outputTokens)/1000*p.OutputPer1K
}

// Tier names used by the cascade's two-model ledger split. Any string is
// a valid tier; these are the ones core stamps on cascade calls.
const (
	// TierCheap bills the cascade's cheap backend.
	TierCheap = "cheap"
	// TierExpensive bills the cascade's expensive (escalation) backend.
	TierExpensive = "expensive"
)

// TierUsage is one tier's share of a ledger's API side. It is the unit
// persisted in run journals, so its fields carry JSON tags.
type TierUsage struct {
	// Tier is the tier name (TierCheap, TierExpensive, ...).
	Tier string `json:"tier"`
	// Calls is the number of billed calls on this tier.
	Calls int `json:"calls"`
	// InputTokens and OutputTokens are the billed token counts.
	InputTokens  int `json:"in"`
	OutputTokens int `json:"out"`
	// Dollars is the accumulated API charge on this tier.
	Dollars float64 `json:"usd"`
}

// Ledger accumulates the monetary cost of an ER run: API charges per call
// and labeling charges per annotated demonstration. The zero value is
// ready to use. Ledger is not safe for concurrent use; callers running
// parallel experiments keep one ledger per goroutine and merge.
type Ledger struct {
	inputTokens  int
	outputTokens int
	apiDollars   float64
	calls        int
	labeled      int
	// tiers splits the API side per tier for cascade runs, sorted by tier
	// name. Mutations copy the slice first, so ledger value copies never
	// alias live state.
	tiers []TierUsage
}

// AddCall records one LLM API call billed under pricing.
func (l *Ledger) AddCall(p Pricing, inputTokens, outputTokens int) {
	l.inputTokens += inputTokens
	l.outputTokens += outputTokens
	l.apiDollars += p.APICost(inputTokens, outputTokens)
	l.calls++
}

// AddTierCall records one LLM API call billed under pricing and
// attributed to the named tier. An empty tier bills like AddCall with no
// tier bucket.
func (l *Ledger) AddTierCall(tier string, p Pricing, inputTokens, outputTokens int) {
	l.AddCall(p, inputTokens, outputTokens)
	if tier == "" {
		return
	}
	l.addTier(TierUsage{
		Tier:         tier,
		Calls:        1,
		InputTokens:  inputTokens,
		OutputTokens: outputTokens,
		Dollars:      p.APICost(inputTokens, outputTokens),
	})
}

// addTier folds u into the tier buckets, copying the slice first so the
// ledger's value copies stay independent.
func (l *Ledger) addTier(u TierUsage) {
	tiers := make([]TierUsage, len(l.tiers), len(l.tiers)+1)
	copy(tiers, l.tiers)
	i := 0
	for i < len(tiers) && tiers[i].Tier < u.Tier {
		i++
	}
	if i < len(tiers) && tiers[i].Tier == u.Tier {
		tiers[i].Calls += u.Calls
		tiers[i].InputTokens += u.InputTokens
		tiers[i].OutputTokens += u.OutputTokens
		tiers[i].Dollars += u.Dollars
	} else {
		tiers = append(tiers, TierUsage{})
		copy(tiers[i+1:], tiers[i:])
		tiers[i] = u
	}
	l.tiers = tiers
}

// TierBreakdown returns the per-tier API split, sorted by tier name.
// Empty for runs that never billed a tiered call.
func (l *Ledger) TierBreakdown() []TierUsage {
	if len(l.tiers) == 0 {
		return nil
	}
	out := make([]TierUsage, len(l.tiers))
	copy(out, l.tiers)
	return out
}

// AddLabels records n manually annotated demonstration pairs.
func (l *Ledger) AddLabels(n int) {
	if n < 0 {
		panic("cost: negative label count")
	}
	l.labeled += n
}

// Merge folds other into l.
func (l *Ledger) Merge(other *Ledger) {
	l.MergeAPI(other)
	l.labeled += other.labeled
}

// MergeAPI folds only other's API side (calls, tokens, dollars) into l,
// leaving labeling untouched. Aggregators that bill annotations of one
// shared pool across several runs use it to avoid double-counting label
// spend, adding distinct labels via AddLabels instead.
func (l *Ledger) MergeAPI(other *Ledger) {
	l.inputTokens += other.inputTokens
	l.outputTokens += other.outputTokens
	l.apiDollars += other.apiDollars
	l.calls += other.calls
	for _, u := range other.tiers {
		l.addTier(u)
	}
}

// RestoreAPI reconstructs a ledger's API side from persisted counters, the
// inverse of reading Calls/InputTokens/OutputTokens/API and the per-tier
// split off a ledger. Run journals use it to rebuild a completed batch's
// cost delta on resume and fold it into an aggregate exactly once via
// MergeAPI. tiers (nil off the cascade) may arrive in any order; buckets
// are re-folded into canonical sorted form.
func RestoreAPI(calls, inputTokens, outputTokens int, apiDollars float64, tiers []TierUsage) Ledger {
	l := Ledger{
		calls:        calls,
		inputTokens:  inputTokens,
		outputTokens: outputTokens,
		apiDollars:   apiDollars,
	}
	for _, u := range tiers {
		l.addTier(u)
	}
	return l
}

// API returns the accumulated API cost in dollars.
func (l *Ledger) API() float64 { return l.apiDollars }

// Labeling returns the accumulated labeling cost in dollars.
func (l *Ledger) Labeling() float64 { return float64(l.labeled) * LabelPerPair }

// Total returns API + labeling cost in dollars.
func (l *Ledger) Total() float64 { return l.API() + l.Labeling() }

// Calls returns the number of API calls recorded.
func (l *Ledger) Calls() int { return l.calls }

// InputTokens returns the total prompt tokens billed.
func (l *Ledger) InputTokens() int { return l.inputTokens }

// OutputTokens returns the total completion tokens billed.
func (l *Ledger) OutputTokens() int { return l.outputTokens }

// LabeledPairs returns the number of pairs annotated.
func (l *Ledger) LabeledPairs() int { return l.labeled }

// String summarizes the ledger for reports. Cascade runs append the
// per-tier split; single-model ledgers render exactly as before.
func (l *Ledger) String() string {
	s := fmt.Sprintf("api=$%.2f (%d calls, %d in / %d out tokens) label=$%.2f (%d pairs) total=$%.2f",
		l.API(), l.calls, l.inputTokens, l.outputTokens, l.Labeling(), l.labeled, l.Total())
	for _, u := range l.tiers {
		s += fmt.Sprintf(" | %s=$%.2f (%d calls)", u.Tier, u.Dollars, u.Calls)
	}
	return s
}
