package core

import (
	"batcher/internal/cluster"
	"batcher/internal/feature"
)

// geometry is everything question batching and covering-based selection
// read of a window's pairwise distances. Clustering (dist <= eps) and
// covering (dist < t) are two threshold relations over the same
// distances, so windowGeometry measures them together and the two stages
// work on bits.
type geometry struct {
	// within is DBSCAN's ε-neighbourhood over the questions as
	// cluster.Sweep rows. Nil when the configured batching does not
	// cluster, or when the calibrated radius is not positive (degenerate
	// geometry: every question is one cluster).
	within []uint64
	// t is the covering threshold; set only for CoveringSelection.
	t float64
	// below is the cover relation dist < t as cluster.Sweep rows, pool
	// index by question index. Nil unless the selection is covering and
	// the pool is the question set itself; otherwise covering evaluates
	// its rectangular pool x question relation on its own.
	below []uint64
}

// clustersQuestions reports whether batching needs question clusters.
func (c Config) clustersQuestions() bool {
	return (c.Batching == SimilarityBatching || c.Batching == DiversityBatching) && c.BatchSize != 1
}

// windowGeometry calibrates the thresholds the configuration needs and
// then evaluates cfg.Distance once per unordered pair of questions, for
// both relations at once. selfPooled says the demonstration pool is the
// question set (qVecs are its vectors too), which is what makes the
// cover relation one of the sweep's.
func windowGeometry(cfg Config, qVecs []feature.Vector, selfPooled bool) geometry {
	clustering := cfg.clustersQuestions()
	covering := cfg.Selection == CoveringSelection
	var eps float64
	var g geometry
	if clustering && covering && !cfg.samples(len(qVecs)) {
		// Both calibration samples are the window itself in index order:
		// one distance buffer, two selections, dropped before the sweep
		// allocates its matrices.
		ds := cluster.PairwiseDistances(qVecs, cfg.Distance)
		eps = cluster.Percentile(ds, cfg.ClusterEpsPercentile)
		g.t = coverThresholdOf(ds, cfg.CoverPercentile)
	} else {
		if clustering {
			eps = cluster.EpsPercentile(qVecs, cfg.Distance, cfg.ClusterEpsPercentile, cfg.DistanceSampleCap, cfg.Seed)
		}
		if covering {
			g.t = coverThreshold(cfg, qVecs)
		}
	}
	g.within, g.below = cluster.Sweep(qVecs, cfg.Distance,
		eps, clustering && !(eps <= 0), g.t, covering && selfPooled)
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
	return cluster.DBSCANRows(n, g.within, minPts).Clusters()
}
