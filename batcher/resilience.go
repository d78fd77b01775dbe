package batcher

import (
	"context"
	"time"

	"batcher/internal/core"
	"batcher/internal/cost"
	"batcher/internal/llm"
	"batcher/internal/runstore"
)

// Fault-tolerant transport. NewClientStack is the one place the
// resilience layers and the disk cache are composed, and so the one
// place their order lives, innermost first:
//
//	base -> chaos (tests only) -> one breaker per cascade tier ->
//	retrying -> hedged -> disk cache
//
// The cache is outermost, so cached answers never consume retry budget,
// trip a breaker or launch a hedge. See docs/ARCHITECTURE.md, "Fault
// tolerance".

// APIError is the typed transport error both live clients return: the
// HTTP status, the error class, and any Retry-After hint the backend
// sent. Match classes with errors.Is against the Err* sentinels.
type APIError = llm.APIError

// Error classes, matchable via errors.Is on any transport error.
var (
	// ErrThrottled marks rate limiting (HTTP 429): transient, and the
	// retry middleware honors the backend's Retry-After hint.
	ErrThrottled = llm.ErrThrottled
	// ErrOverloaded marks backend failure (HTTP 5xx): transient.
	ErrOverloaded = llm.ErrOverloaded
	// ErrTransport marks connection-level failures — dial errors,
	// truncated or malformed response bodies: transient.
	ErrTransport = llm.ErrTransport
	// ErrPermanent marks caller errors (HTTP 4xx other than 429/408):
	// retrying cannot help, so the middleware fails fast.
	ErrPermanent = llm.ErrPermanent
	// ErrCircuitOpen is returned by an open circuit breaker without
	// touching the backend. Not transient; the degradation policy
	// (WithDegrade) decides what happens to the refused batch.
	ErrCircuitOpen = llm.ErrCircuitOpen
)

// Transient reports whether retrying err could plausibly succeed.
// Unclassified errors default to transient; ErrPermanent, ErrCircuitOpen,
// context-length, and unknown-model errors do not.
func Transient(err error) bool { return llm.Transient(err) }

// FaultProfile parameterizes the deterministic chaos harness: per-class
// injection probabilities, the Retry-After carried by injected
// throttles, and how many times each distinct request may be faulted
// before it is forwarded untouched.
type FaultProfile = llm.FaultProfile

// DegradePolicy decides what happens to a batch refused by an open
// circuit breaker: fail the run, answer Unknown, or stand on the cheap
// tier's answer. Degraded batches are journaled as repairable
// placeholders — resuming the run once the backend recovers re-resolves
// exactly those batches without re-billing anything else.
type DegradePolicy = core.DegradePolicy

// Degradation policies for WithDegrade.
const (
	// DegradeFailFast fails the run on ErrCircuitOpen (the default).
	DegradeFailFast = core.DegradeFailFast
	// DegradeUnknown answers the refused batch Unknown and keeps going.
	DegradeUnknown = core.DegradeUnknown
	// DegradeCheapOnly stands on the cheap tier's answer when a cascade
	// batch's escalation is refused; without one it falls back to
	// Unknown placeholders.
	DegradeCheapOnly = core.DegradeCheapOnly
)

// ParseDegradePolicy parses "fail-fast", "unknown", or "cheap-only".
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	return core.ParseDegradePolicy(s)
}

// Resilience aggregates a run's fault-tolerance counters — retries,
// breaker trips, hedges and their waste, degraded windows, injected
// chaos faults — alongside the ledger's spend totals.
type Resilience = cost.Resilience

// DiskCache is a persistent LLM response cache: llm hits survive process
// restarts and can be shared (sequentially) across experiments. Cache
// hits bill zero tokens and are excluded from the ledger's call count.
type DiskCache = runstore.Cache

// NewDiskCachedClient wraps a client with a disk-backed response cache
// stored in dir, content-addressed by the full request (model, system
// prompt, prompt, temperature, max-tokens, tier). maxBytes bounds the store
// (<= 0 uses a 256 MiB default); least-recently-used responses are
// compacted away past the bound. Close it after the run to flush. ctx
// bounds the replay of existing cache segments at open. To combine the
// cache with resilience layers, use NewClientStack's CacheDir instead.
func NewDiskCachedClient(ctx context.Context, inner Client, dir string, maxBytes int64) (*DiskCache, error) {
	return runstore.OpenCache(ctx, inner, dir, maxBytes)
}

// StackConfig selects the layers NewClientStack composes. Every layer
// is off at its zero value, so StackConfig{} is a pass-through.
type StackConfig struct {
	// Chaos, when non-zero, injects deterministic transport faults in
	// front of the base client, scheduled by ChaosSeed: the same seed
	// replays the same faults. Injected faults never reach the base
	// client and never bill. For resilience tests and soaks only.
	Chaos     FaultProfile
	ChaosSeed int64
	// BreakerFails > 0 opens a circuit breaker after that many
	// consecutive transient failures; while open it refuses calls with
	// ErrCircuitOpen for BreakerCooldown (<= 0 means 30s) before
	// admitting one probe. Each cascade tier gets its own breaker.
	BreakerFails    int
	BreakerCooldown time.Duration
	// Retries > 1 is the attempt budget per call for transient failures;
	// attempt n waits a uniform draw from [0, RetryBase<<n], seeded by
	// RetrySeed and raised to any Retry-After hint.
	Retries   int
	RetryBase time.Duration
	RetrySeed int64
	// HedgeAfter > 0 launches a second attempt for a call still
	// unanswered after that long; the first success wins.
	HedgeAfter time.Duration
	// CacheDir, when set, persists responses there (see
	// NewDiskCachedClient), bounded by CacheBytes (<= 0 means 256 MiB).
	CacheDir   string
	CacheBytes int64
}

// ClientStack is a Client composed by NewClientStack, with one
// snapshot of every layer's counters.
type ClientStack struct {
	top      Client
	chaos    *llm.Chaos
	breakers []*llm.Breaker
	retrying *llm.Retrying
	hedged   *llm.Hedged
	cache    *runstore.Cache
}

// NewClientStack wraps base in the layers cfg enables, in the one order
// the transport depends on, innermost first: chaos, breakers, retrying,
// hedged, disk cache.
//
//   - The breakers sit under retrying, so an open circuit ends the retry
//     loop at once with ErrCircuitOpen instead of burning the budget.
//     There is one per cascade tier over the same backend, so an
//     expensive-tier outage cannot refuse the cheap tier's calls;
//     requests without a tier only ever meet the cheap tier's breaker.
//   - Retrying sits over chaos, so every injected fault costs exactly
//     one retry and nothing else.
//   - Hedged sits over retrying: a hedge launches only for a call the
//     retry budget has not already answered.
//   - The disk cache is outermost, so a cached answer touches no other
//     layer.
//
// ctx bounds the replay of an existing cache at open. Close the stack
// after the run to flush the cache.
func NewClientStack(ctx context.Context, base Client, cfg StackConfig) (*ClientStack, error) {
	s := &ClientStack{}
	c := base
	if cfg.Chaos != (FaultProfile{}) {
		s.chaos = llm.NewChaos(c, cfg.Chaos, cfg.ChaosSeed)
		c = s.chaos
	}
	if cfg.BreakerFails > 0 {
		cheap := llm.NewBreaker(c, cfg.BreakerFails, cfg.BreakerCooldown)
		expensive := llm.NewBreaker(c, cfg.BreakerFails, cfg.BreakerCooldown)
		s.breakers = []*llm.Breaker{cheap, expensive}
		c = llm.NewTiered(cheap, expensive)
	}
	if cfg.Retries > 1 {
		s.retrying = llm.NewRetryingSeeded(c, cfg.Retries, cfg.RetryBase, cfg.RetrySeed)
		c = s.retrying
	}
	if cfg.HedgeAfter > 0 {
		s.hedged = llm.NewHedged(c, cfg.HedgeAfter)
		c = s.hedged
	}
	if cfg.CacheDir != "" {
		cache, err := runstore.OpenCache(ctx, c, cfg.CacheDir, cfg.CacheBytes)
		if err != nil {
			return nil, err
		}
		s.cache = cache
		c = cache
	}
	s.top = c
	return s, nil
}

// Complete implements Client through the outermost layer.
func (s *ClientStack) Complete(ctx context.Context, req Request) (Response, error) {
	return s.top.Complete(ctx, req)
}

// Stats snapshots the transport's counters: injected faults, retries,
// breaker opens and rejections summed over both tiers, hedges, and the
// hedging waste priced at each losing request's own model. Degraded
// windows are a run-level count the stack cannot see: copy
// PipelineReport.Degraded into DegradedWindows.
func (s *ClientStack) Stats() Resilience {
	var r Resilience
	if s.chaos != nil {
		r.FaultsInjected = s.chaos.Injected()
	}
	for _, b := range s.breakers {
		r.BreakerOpens += b.Opens()
		r.BreakerRejections += b.Rejections()
	}
	if s.retrying != nil {
		r.Retries = s.retrying.Retries()
	}
	if s.hedged != nil {
		st := s.hedged.Stats()
		r.HedgesLaunched, r.HedgesWon = st.Launched, st.Won
		r.WasteCalls = st.WasteCalls
		r.WasteInputTokens, r.WasteOutputTokens = st.WasteInputTokens, st.WasteOutputTokens
		r.WasteDollars = st.WasteDollars()
	}
	return r
}

// CacheStats reports the disk cache's hits and misses since open; both
// are zero without a CacheDir.
func (s *ClientStack) CacheStats() (hits, misses int) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.Stats()
}

// Close flushes and closes the disk cache, if any. It is safe to call
// more than once; the stack must not be used afterwards.
func (s *ClientStack) Close() error {
	if s.cache == nil {
		return nil
	}
	return s.cache.Close()
}
