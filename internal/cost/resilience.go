package cost

import (
	"fmt"
	"strings"
)

// Resilience aggregates the fault-tolerance counters of a run: what the
// resilience middleware (llm.Retrying, llm.Breaker, llm.Hedged,
// llm.Chaos) did on the way to the ledger's totals. The ledger answers
// "what did this run cost"; Resilience answers "what did it survive".
// The zero value means a fault-free run through a bare client.
type Resilience struct {
	// Retries is the number of re-attempts the retry middleware made
	// after transient failures (the first attempt of each call is not
	// counted).
	Retries int64
	// BreakerOpens is how many times a circuit breaker tripped open.
	BreakerOpens int64
	// BreakerRejections is how many calls an open breaker refused
	// without touching the backend.
	BreakerRejections int64
	// HedgesLaunched is how many hedge (backup) requests were started;
	// HedgesWon is how many of those finished before their primary.
	HedgesLaunched int64
	HedgesWon      int64
	// WasteCalls / WasteInputTokens / WasteOutputTokens account the
	// hedging losers: completed duplicate calls whose answers were
	// discarded. This spend is real — the provider bills it — but it is
	// out-of-band: it never enters the run ledger because the ledger
	// tracks the answers that produced predictions. WasteDollars prices
	// each loser at the rates of the model its request named.
	WasteCalls        int64
	WasteInputTokens  int64
	WasteOutputTokens int64
	WasteDollars      float64
	// DegradedWindows is the number of windows containing batches
	// answered by the degradation policy instead of the LLM
	// (pipeline.Report.Degraded).
	DegradedWindows int
	// FaultsInjected is the number of faults a chaos harness injected;
	// zero outside chaos testing.
	FaultsInjected int64
}

// Any reports whether any counter is non-zero — whether the run saw (or
// injected) any turbulence at all.
func (r Resilience) Any() bool {
	return r != Resilience{}
}

// String renders the non-zero counters as a compact one-line summary,
// or "no faults" when everything is zero.
func (r Resilience) String() string {
	if !r.Any() {
		return "no faults"
	}
	var parts []string
	if r.Retries > 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", r.Retries))
	}
	if r.BreakerOpens > 0 || r.BreakerRejections > 0 {
		parts = append(parts, fmt.Sprintf("breaker_opens=%d breaker_rejections=%d", r.BreakerOpens, r.BreakerRejections))
	}
	if r.HedgesLaunched > 0 {
		parts = append(parts, fmt.Sprintf("hedges=%d won=%d", r.HedgesLaunched, r.HedgesWon))
	}
	if r.WasteCalls > 0 {
		parts = append(parts, fmt.Sprintf("hedge_waste=%d calls ($%.4f)", r.WasteCalls, r.WasteDollars))
	}
	if r.DegradedWindows > 0 {
		parts = append(parts, fmt.Sprintf("degraded_windows=%d", r.DegradedWindows))
	}
	if r.FaultsInjected > 0 {
		parts = append(parts, fmt.Sprintf("chaos_faults=%d", r.FaultsInjected))
	}
	return strings.Join(parts, ", ")
}
