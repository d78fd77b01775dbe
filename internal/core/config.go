// Package core implements the BATCHER framework of Section II-C: question
// batching (Section III) and demonstration selection (Section IV),
// including the covering-based strategy of Section V, orchestrated into an
// end-to-end batch-prompting matcher.
//
// The framework takes a question set (unlabeled candidate pairs) and an
// unlabeled demonstration pool, produces batch prompts, sends them to an
// llm.Client, and returns per-question matching predictions together with
// the full monetary cost ledger (API + labeling).
package core

import (
	"fmt"

	"batcher/internal/feature"
	"batcher/internal/llm"
	"batcher/internal/prompt"
)

// BatchStrategy selects how questions are grouped into batches (Table I,
// "Question Batching").
type BatchStrategy int

const (
	// RandomBatching forms batches by random selection.
	RandomBatching BatchStrategy = iota
	// SimilarityBatching groups questions from the same cluster.
	SimilarityBatching
	// DiversityBatching spreads each batch across clusters.
	DiversityBatching
)

// String implements fmt.Stringer.
func (b BatchStrategy) String() string {
	switch b {
	case RandomBatching:
		return "random"
	case SimilarityBatching:
		return "similarity"
	case DiversityBatching:
		return "diversity"
	default:
		return fmt.Sprintf("BatchStrategy(%d)", int(b))
	}
}

// BatchStrategies lists all strategies in the paper's table order.
func BatchStrategies() []BatchStrategy {
	return []BatchStrategy{RandomBatching, SimilarityBatching, DiversityBatching}
}

// SelectStrategy selects how demonstrations are chosen for batches
// (Table I, "Demonstration Selection").
type SelectStrategy int

const (
	// FixedSelection samples K demonstrations once and shares them.
	FixedSelection SelectStrategy = iota
	// TopKBatch picks the k nearest demonstrations to each batch (Eq. 6).
	TopKBatch
	// TopKQuestion picks the k nearest demonstrations to each question.
	TopKQuestion
	// CoveringSelection is the paper's proposal: greedy set cover over
	// all questions, then weighted batch covering (Section V).
	CoveringSelection

	// VoteKSelection (defined in votek.go with value 100) is an extension
	// beyond the paper's design space: vote-k selective annotation.
)

// String implements fmt.Stringer.
func (s SelectStrategy) String() string {
	switch s {
	case FixedSelection:
		return "fixed"
	case TopKBatch:
		return "topk-batch"
	case TopKQuestion:
		return "topk-question"
	case CoveringSelection:
		return "cover"
	case VoteKSelection:
		return "vote-k"
	default:
		return fmt.Sprintf("SelectStrategy(%d)", int(s))
	}
}

// SelectStrategies lists all strategies in the paper's table order.
func SelectStrategies() []SelectStrategy {
	return []SelectStrategy{FixedSelection, TopKBatch, TopKQuestion, CoveringSelection}
}

// Config parameterizes a Framework. The zero value is completed by
// applyDefaults to the paper's experimental defaults.
type Config struct {
	// BatchSize is the number of questions per prompt; the paper uses 8.
	// 1 reproduces standard prompting.
	BatchSize int
	// NumDemos is the demonstration budget per batch for Fixed and
	// TopKBatch (the paper uses 8), and the per-question k for
	// TopKQuestion is derived as max(1, NumDemos/BatchSize).
	NumDemos int
	// Batching and Selection choose the design point.
	Batching  BatchStrategy
	Selection SelectStrategy
	// Extractor maps pairs to feature vectors; default structure-aware LR.
	Extractor feature.Extractor
	// Distance over feature vectors; default Euclidean (paper's choice).
	// It must be symmetric to the bit and safe for concurrent calls (see
	// feature.Distance): the clustering and covering relations of a
	// window are defined by Distance(v[i], v[j]) for i <= j, evaluated
	// once and read in both directions.
	Distance feature.Distance
	// CoverPercentile calibrates the covering threshold t as this
	// percentile of the all-question pairwise distances; paper uses the
	// 8th percentile (0.08).
	CoverPercentile float64
	// ClusterEpsPercentile calibrates DBSCAN's eps the same way.
	ClusterEpsPercentile float64
	// ClusterMinPts is DBSCAN's density threshold.
	ClusterMinPts int
	// Model is the llm registry name; default GPT-3.5-turbo-0301.
	Model string
	// TaskDescription overrides the default instruction header.
	TaskDescription string
	// Seed drives all randomized steps (fixed sampling, shuffles).
	Seed int64
	// DistanceSampleCap bounds the pairwise-distance sample used for
	// percentile calibration; 0 means 512 points. A window of at most
	// this many questions is its own sample: its U distinct vectors are
	// measured once per unordered pair, U(U+1)/2 distances that serve
	// both percentiles and both relations of the sweep. A larger window
	// calibrates each threshold on a seeded sample of this many.
	DistanceSampleCap int
	// Parallelism is the number of batch prompts in flight concurrently.
	// 1 (the default) preserves strictly sequential behaviour; larger
	// values pipeline independent batches, which is safe because batches
	// never share state and the underlying clients are concurrency-safe.
	Parallelism int
	// CheapModel enables cascade matching when non-empty: each batch is
	// first answered by this (cheaper) registry model and only escalated
	// to Model — the expensive tier — when uncertainty fires: the batch's
	// vote-k margin falls below EscalateMargin, or the cheap answer
	// contains Unknowns. The client must route tiers, e.g. llm.NewTiered.
	CheapModel string
	// EscalateMargin is the vote-k margin below which a cascade batch
	// skips the cheap tier and goes straight to Model. 0 escalates only on
	// Unknown answers. Ignored unless CheapModel is set.
	EscalateMargin float64
	// Degrade decides what happens to a batch refused by an open
	// circuit breaker (llm.ErrCircuitOpen): fail the run (the default),
	// answer Unknown, or — on cascade runs — stand on the cheap tier's
	// answer. See DegradePolicy.
	Degrade DegradePolicy
}

// applyDefaults fills unset fields with the paper's defaults.
func (c Config) applyDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.NumDemos <= 0 {
		c.NumDemos = 8
	}
	if c.Extractor == nil {
		c.Extractor = feature.NewLR()
	}
	if c.Distance == nil {
		c.Distance = feature.Euclidean
	}
	if c.CoverPercentile <= 0 {
		c.CoverPercentile = 0.08
	}
	if c.ClusterEpsPercentile <= 0 {
		c.ClusterEpsPercentile = 0.05
	}
	if c.ClusterMinPts <= 0 {
		c.ClusterMinPts = 3
	}
	if c.Model == "" {
		c.Model = llm.DefaultModel
	}
	if c.TaskDescription == "" {
		c.TaskDescription = prompt.DefaultTaskDescription
	}
	if c.DistanceSampleCap <= 0 {
		c.DistanceSampleCap = 512
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	return c
}

// questionK returns the per-question k for TopKQuestion selection.
func (c Config) questionK() int {
	k := c.NumDemos / c.BatchSize
	if k < 1 {
		k = 1
	}
	return k
}
