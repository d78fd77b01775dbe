package core

import (
	"batcher/internal/bitrel"
	"batcher/internal/cluster"
	"batcher/internal/feature"
	"batcher/internal/setcover"
)

// geometry is everything question batching and covering-based selection
// read of a window's pairwise distances. Clustering (dist <= eps) and
// covering (dist < t) are two threshold relations over the same
// distances, so windowGeometry measures them together and the two stages
// work on bits.
type geometry struct {
	// within is DBSCAN's ε-neighbourhood over the questions, as
	// cluster.Sweep builds it. Nil when the configured batching does not
	// cluster, or when the calibrated radius is not positive (degenerate
	// geometry: every question is one cluster).
	within *bitrel.Rel
	// t is the covering threshold; set only for CoveringSelection.
	t float64
	// below is the cover relation dist < t, pool index by question
	// index: cluster.Sweep's when the pool is the question set itself,
	// setcover.Rows' over the rectangular pool x question relation
	// otherwise. Nil unless the selection is covering.
	below *bitrel.Rel
}

// clustersQuestions reports whether batching needs question clusters.
func (c Config) clustersQuestions() bool {
	return (c.Batching == SimilarityBatching || c.Batching == DiversityBatching) && c.BatchSize != 1
}

// windowGeometry calibrates the thresholds the configuration needs and
// then has cfg.Distance evaluated once per unordered pair of questions,
// for both relations at once. selfPooled says the demonstration pool is
// the question set (dVecs is qVecs), which is what makes the cover
// relation one of the sweep's; any other pool has its cover relation
// measured once per (pool, question) cell.
//
// A window no larger than DistanceSampleCap is its own calibration
// sample, for both thresholds, in index order: its pairwise distances
// are measured once, both percentiles are selected from that buffer
// (which selection only reads), and the sweep reads its relations from
// the same buffer, adding only the n diagonal calls. A larger window
// draws each threshold's seeded sample and the sweep measures the
// window itself, once per unordered pair of distinct vectors.
func windowGeometry(cfg Config, qVecs, dVecs []feature.Vector, selfPooled bool) geometry {
	clustering := cfg.clustersQuestions()
	covering := cfg.Selection == CoveringSelection
	var eps float64
	var g geometry
	var ds []float64
	if (clustering || covering) && !cfg.samples(len(qVecs)) {
		ds = cluster.PairwiseDistances(qVecs, cfg.Distance)
		if clustering {
			eps = cluster.Percentile(ds, cfg.ClusterEpsPercentile)
		}
		if covering {
			g.t = coverThresholdOf(ds, cfg.CoverPercentile)
		}
	} else {
		if clustering {
			eps = cluster.EpsPercentile(qVecs, cfg.Distance, cfg.ClusterEpsPercentile, cfg.DistanceSampleCap, cfg.Seed)
		}
		if covering {
			g.t = coverThreshold(cfg, qVecs)
		}
	}
	g.within, g.below = cluster.Sweep(qVecs, cfg.Distance, ds,
		eps, clustering && !(eps <= 0), g.t, covering && selfPooled)
	if covering && !selfPooled {
		g.below = setcover.Rows(len(dVecs), len(qVecs), func(d, q int) bool { return cfg.Distance(dVecs[d], qVecs[q]) < g.t })
	}
	return g
}

// samples reports whether percentile calibration over n points draws a
// sample instead of using all of them.
func (c Config) samples(n int) bool {
	return c.DistanceSampleCap > 0 && n > c.DistanceSampleCap
}

// clusters returns the n questions' DBSCAN clusters (noise points as
// singletons).
func (g geometry) clusters(n, minPts int) [][]int {
	if g.within == nil {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	return cluster.DBSCANRows(g.within, minPts).Clusters()
}
