package batcher

import (
	"batcher/internal/cascade"
	"batcher/internal/llm"
)

// CascadePrefilter is a calibrated similarity pre-filter: trained on
// labeled pairs, it scores each candidate's match probability and routes
// pairs below tau-lo to Auto-No, above tau-hi to Auto-Yes, and the
// ambiguous band in between to the LLM. Pass one in
// PipelineConfig.Prefilter to spend the LLM budget only on hard pairs.
type CascadePrefilter = cascade.Prefilter

// CascadeConfig tunes pre-filter training: the routing thresholds and
// the training seed. The zero value uses the default thresholds (tau
// 0.05/0.95); calibration is always Platt scaling.
type CascadeConfig = cascade.Config

// TrainCascadePrefilter fits the calibrated pre-filter on labeled pairs
// (both classes must be present). Labels cost money in practice — bill
// them at the ledger's per-pair labeling rate when comparing cascade
// totals to a flat run.
func TrainCascadePrefilter(labeled []Pair, cfg CascadeConfig) (*CascadePrefilter, error) {
	return cascade.Train(labeled, cfg)
}

// BootstrapLabels derives training labels for the pre-filter from
// structural similarity alone, for the unsupervised setting where no
// labeled pairs exist. It returns a copy of pairs: a pair that already
// carries a Truth keeps it, and every other pair is weak-labeled, so the
// returned slice has one entry per input pair.
func BootstrapLabels(pairs []Pair) []Pair {
	return cascade.BootstrapLabels(pairs)
}

// NewTieredClient routes each request to the cheap or expensive backend
// by its tier, for cascades whose tiers live on different endpoints.
// When both tiers share one endpoint, passing that client directly works
// too — the request's model name already differs per tier.
func NewTieredClient(cheap, expensive Client) Client {
	return llm.NewTiered(cheap, expensive)
}
