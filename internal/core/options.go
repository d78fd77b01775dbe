package core

import "batcher/internal/feature"

// Option configures a Framework at construction time. Options mutate a
// Config before applyDefaults resolves the remaining fields, so an unset
// knob always lands on the paper's experimental default — New(client)
// with no options is exactly Config{}.applyDefaults().
type Option func(*Config)

// WithBatchSize sets questions per prompt (default 8; 1 reproduces
// standard prompting).
func WithBatchSize(n int) Option { return func(c *Config) { c.BatchSize = n } }

// WithNumDemos sets the per-batch demonstration budget (default 8).
func WithNumDemos(n int) Option { return func(c *Config) { c.NumDemos = n } }

// WithBatching sets the question batching strategy (Section III).
func WithBatching(b BatchStrategy) Option { return func(c *Config) { c.Batching = b } }

// WithSelection sets the demonstration selection strategy (Sections IV-V).
func WithSelection(s SelectStrategy) Option { return func(c *Config) { c.Selection = s } }

// WithExtractor sets the feature extractor mapping pairs to vectors
// (default structure-aware Levenshtein ratio, the paper's BATCHER-LR).
func WithExtractor(e feature.Extractor) Option { return func(c *Config) { c.Extractor = e } }

// WithCoverPercentile sets the covering threshold percentile (default
// 0.08, the paper's 8th percentile).
func WithCoverPercentile(p float64) Option { return func(c *Config) { c.CoverPercentile = p } }

// WithModel sets the underlying LLM by registry name (default
// GPT-3.5-turbo-0301).
func WithModel(name string) Option { return func(c *Config) { c.Model = name } }

// WithTemperature sets the sampling temperature (default 0.01).
func WithTemperature(t float64) Option { return func(c *Config) { c.Temperature = t } }

// WithSeed fixes all randomized steps for reproducibility.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithParallelism dispatches up to n batch prompts concurrently (default
// 1, strictly sequential). Predictions are identical either way; only
// wall-clock changes.
func WithParallelism(n int) Option { return func(c *Config) { c.Parallelism = n } }

// WithJSONAnswers requests structured JSON replies from the LLM instead
// of the paper's free-text format (parsing accepts both).
func WithJSONAnswers() Option { return func(c *Config) { c.JSONAnswers = true } }

// WithCheapModel enables cascade matching: batches go to this registry
// model first and escalate to the main model only when the vote-k margin
// is low or the cheap answer carries Unknowns. Pair it with a client
// that routes tiers (llm.NewTiered) so each tier hits its own backend.
func WithCheapModel(name string) Option { return func(c *Config) { c.CheapModel = name } }

// WithEscalateMargin sets the vote-k margin below which a cascade batch
// bypasses the cheap tier entirely (default 0: escalate only on Unknown
// answers). Only meaningful together with WithCheapModel.
func WithEscalateMargin(m float64) Option { return func(c *Config) { c.EscalateMargin = m } }

// WithDegrade sets the graceful-degradation policy for batches refused
// by an open circuit breaker (default DegradeFailFast). Pair it with
// llm.NewBreaker so an outage actually surfaces as llm.ErrCircuitOpen.
func WithDegrade(p DegradePolicy) Option { return func(c *Config) { c.Degrade = p } }
