package eval

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"batcher/internal/core"
	"batcher/internal/feature"
)

// AblationPoint is one setting of an ablation sweep.
type AblationPoint struct {
	// Setting describes the swept value ("t=8th pct", "b=16", ...).
	Setting string
	F1      float64
	API     float64
	Label   float64
	Labels  int
}

// AblationResult is one dataset's sweep.
type AblationResult struct {
	Dataset string
	Name    string
	Points  []AblationPoint
}

// setting is one point of an ablation sweep: its label and the edit it
// makes to the paper's best design point.
type setting struct {
	name string
	edit func(*core.Config)
}

// sweep runs every setting at the first seed, on AblationDatasets unless
// o names its own.
func sweep(o Options, name string, settings []setting) ([]AblationResult, error) {
	cfgs := make([]core.Config, len(settings))
	for i, s := range settings {
		cfgs[i] = defaultBest()
		s.edit(&cfgs[i])
	}
	return grid(o.subset(AblationDatasets).firstSeed(), frameworks(cfgs...), func(w *workload, c [][]cell) AblationResult {
		res := AblationResult{Dataset: w.name, Name: name}
		for i, s := range settings {
			p := c[i][0]
			res.Points = append(res.Points, AblationPoint{
				Setting: s.name,
				F1:      p.conf.F1(),
				API:     p.api,
				Label:   p.label,
				Labels:  p.labeled,
			})
		}
		return res
	})
}

// RunAblationCoverThreshold sweeps the covering-threshold percentile.
// The paper fixes the 8th percentile after observing exactly this
// trade-off: a smaller t forces more demonstrations (labeling cost up),
// a larger t lets distant demonstrations "cover" questions they do not
// actually help (accuracy down).
func RunAblationCoverThreshold(o Options, percentiles []float64) ([]AblationResult, error) {
	if len(percentiles) == 0 {
		percentiles = []float64{0.02, 0.05, 0.08, 0.15, 0.3}
	}
	var settings []setting
	for _, p := range percentiles {
		settings = append(settings, setting{pctName(p), func(c *core.Config) { c.CoverPercentile = p }})
	}
	return sweep(o, "cover-threshold", settings)
}

// pctName labels a percentile as an ordinal: 0.02 is "t=2nd pct".
func pctName(p float64) string {
	n := int(math.Round(p * 100))
	suffix := "th"
	if n%100/10 != 1 && n%10 >= 1 && n%10 <= 3 {
		suffix = []string{"st", "nd", "rd"}[n%10-1]
	}
	return fmt.Sprintf("t=%d%s pct", n, suffix)
}

// RunAblationBatchSize sweeps the batch size. The paper fixes 8 so no
// design point exceeds the context window; larger batches amortize more
// tokens but risk overruns and answer-alignment slips.
func RunAblationBatchSize(o Options, sizes []int) ([]AblationResult, error) {
	if len(sizes) == 0 {
		sizes = []int{1, 2, 4, 8, 16}
	}
	var settings []setting
	for _, b := range sizes {
		settings = append(settings, setting{"b=" + strconv.Itoa(b), func(c *core.Config) { c.BatchSize = b }})
	}
	return sweep(o, "batch-size", settings)
}

// RunAblationDistance compares Euclidean (the paper's choice) against
// cosine distance for clustering and selection.
func RunAblationDistance(o Options) ([]AblationResult, error) {
	return sweep(o, "distance", []setting{
		{"euclidean", func(c *core.Config) { c.Distance = feature.Euclidean }},
		{"cosine", func(c *core.Config) { c.Distance = feature.CosineDistance }},
	})
}

// RunAblationParallelism verifies that parallel batch dispatch is
// result-identical to sequential dispatch while exercising the pool.
func RunAblationParallelism(o Options) ([]AblationResult, error) {
	return sweep(o, "parallelism", []setting{
		{"p=1", func(c *core.Config) { c.Parallelism = 1 }},
		{"p=4", func(c *core.Config) { c.Parallelism = 4 }},
	})
}

// FormatAblations renders ablation sweeps.
func FormatAblations(w io.Writer, results []AblationResult) {
	for _, r := range results {
		fprintf(w, "Ablation %s on %s:\n", r.Name, r.Dataset)
		for _, p := range r.Points {
			fprintf(w, "  %-12s F1 %6.2f  api $%.3f  label $%.3f (%d labels)\n",
				p.Setting, p.F1, p.API, p.Label, p.Labels)
		}
	}
}
