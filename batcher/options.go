package batcher

import "batcher/internal/feature"

// Option configures a Matcher: a closure over the Config it resolves
// to. Options apply in order, so a later option overrides an earlier
// one, and any field no option sets lands on the paper's default.
type Option func(*Config)

// resolve folds opts over the facade default — diversity batching with
// covering selection, the paper's best design point — leaving every
// field no option sets to core's defaults. New and RunPipeline both
// start here, so the two entry points cannot drift apart.
func resolve(opts []Option) Config {
	cfg := Config{Batching: DiversityBatching, Selection: CoveringSelection}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithBatchSize sets questions per prompt (default 8; 1 = standard
// prompting).
func WithBatchSize(n int) Option { return func(c *Config) { c.BatchSize = n } }

// WithNumDemos sets the per-batch demonstration budget (default 8).
func WithNumDemos(n int) Option { return func(c *Config) { c.NumDemos = n } }

// WithBatching sets the question batching strategy (paper Section III).
func WithBatching(b BatchStrategy) Option { return func(c *Config) { c.Batching = b } }

// WithSelection sets the demonstration selection strategy (paper
// Sections IV-V).
func WithSelection(s SelectStrategy) Option { return func(c *Config) { c.Selection = s } }

// WithModel sets the underlying LLM by registry name (default
// GPT-3.5-turbo-0301).
func WithModel(name string) Option { return func(c *Config) { c.Model = name } }

// WithSeed fixes all randomized steps for reproducibility.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithParallelism dispatches up to n batch prompts concurrently (default
// 1, strictly sequential). Results are identical to sequential
// execution; only wall-clock changes.
func WithParallelism(n int) Option { return func(c *Config) { c.Parallelism = n } }

// WithLRFeatures selects the structure-aware Levenshtein-ratio extractor
// (default, the paper's BATCHER-LR).
func WithLRFeatures() Option { return func(c *Config) { c.Extractor = feature.NewLR() } }

// WithJaccardFeatures selects the structure-aware Jaccard extractor
// (BATCHER-JAC).
func WithJaccardFeatures() Option { return func(c *Config) { c.Extractor = feature.NewJAC() } }

// WithSemanticFeatures selects the semantics-based embedding extractor
// (BATCHER-SEM).
func WithSemanticFeatures() Option { return func(c *Config) { c.Extractor = feature.NewSEM() } }

// WithCoverPercentile sets the covering threshold percentile (default
// 0.08, the paper's 8th percentile).
func WithCoverPercentile(p float64) Option { return func(c *Config) { c.CoverPercentile = p } }

// WithCheapModel enables tiered matching inside the batch matcher: the
// ambiguous band is first answered by this cheaper model, and a batch
// escalates to the main (expensive) model only when its vote-k margin
// falls below the escalation margin or the cheap model answers Unknown.
func WithCheapModel(name string) Option { return func(c *Config) { c.CheapModel = name } }

// WithEscalateMargin sets the vote-k margin below which a cheap-tier
// batch escalates to the expensive model (default 0: escalate only on
// Unknown answers).
func WithEscalateMargin(m float64) Option { return func(c *Config) { c.EscalateMargin = m } }

// WithDegrade sets the graceful-degradation policy for batches refused
// by an open circuit breaker (default DegradeFailFast).
func WithDegrade(p DegradePolicy) Option { return func(c *Config) { c.Degrade = p } }
