package eval

import (
	"io"
	"slices"

	"batcher/internal/baselines"
	"batcher/internal/metrics"
)

// --- Figure 6: precision/recall/F1 breakdown --------------------------------

// Figure6Bar holds P/R/F1 for one method on one dataset.
type Figure6Bar struct {
	Dataset   string
	Method    string // "Standard" or "Batch"
	Precision float64
	Recall    float64
	F1        float64
}

// Figure6Datasets are the two datasets the paper breaks down.
var Figure6Datasets = []string{"WA", "AB"}

// AblationDatasets are the representative pair the ablation sweeps run
// on when Options names no datasets.
var AblationDatasets = []string{"WA", "DA"}

// RunFigure6 reproduces Figure 6: precision/recall/F1 of standard versus
// batch prompting over the seeds' summed confusion, on Figure6Datasets
// unless o names its own.
func RunFigure6(o Options) ([]Figure6Bar, error) {
	bars, err := grid(o.subset(Figure6Datasets), frameworks(standardPrompting, batchPrompting), func(w *workload, c [][]cell) []Figure6Bar {
		var bars []Figure6Bar
		for i, method := range []string{"Standard", "Batch"} {
			var agg metrics.Confusion
			for _, s := range c[i] {
				agg.TP += s.conf.TP
				agg.FP += s.conf.FP
				agg.FN += s.conf.FN
				agg.TN += s.conf.TN
			}
			bars = append(bars, Figure6Bar{
				Dataset:   w.name,
				Method:    method,
				Precision: 100 * agg.Precision(),
				Recall:    100 * agg.Recall(),
				F1:        agg.F1(),
			})
		}
		return bars
	})
	return slices.Concat(bars...), err
}

// FormatFigure6 renders the bars as text.
func FormatFigure6(w io.Writer, bars []Figure6Bar) {
	fprintf(w, "Figure 6: Precision / Recall / F1, Standard vs Batch\n")
	fprintf(w, "%-6s %-10s %10s %10s %10s\n", "Data", "Method", "Precision", "Recall", "F1")
	for _, b := range bars {
		fprintf(w, "%-6s %-10s %10.1f %10.1f %10.2f\n", b.Dataset, b.Method, b.Precision, b.Recall, b.F1)
	}
}

// --- Figure 7: PLM learning curves vs BATCHER --------------------------------

// Figure7Series is one method's learning curve on one dataset. BATCHER's
// "curve" is flat: its labeled-data need is the covering set, independent
// of a training budget.
type Figure7Series struct {
	Dataset string
	Method  string
	Points  []baselines.LearningCurvePoint
	// LabeledPairs is the annotation need of the method at each point
	// (constant for BATCHER).
	LabeledPairs int
}

// DefaultCurveSizes are the training-set sizes swept in Figure 7.
var DefaultCurveSizes = []int{50, 200, 500, 1000, 2000, 4000}

// RunFigure7 reproduces Figure 7 at the first seed: F1 versus number of
// labeled training samples for Ditto/JointBERT/RobEM, against BATCHER's
// flat line.
func RunFigure7(o Options, sizes []int) ([]Figure7Series, error) {
	if len(sizes) == 0 {
		sizes = DefaultCurveSizes
	}
	plms := baselines.PLMs()
	var clamped []int // the sweep sizes of the workload being run
	arms := func(w *workload) []arm {
		// Clamp sweep sizes to the dataset's train split.
		clamped = nil
		for _, s := range sizes {
			s = min(s, len(w.train))
			if len(clamped) == 0 || clamped[len(clamped)-1] != s {
				clamped = append(clamped, s)
			}
		}
		var arms []arm
		for _, plm := range plms {
			for _, n := range clamped {
				arms = append(arms, trainPLM(plm, n))
			}
		}
		// BATCHER: one run at the best design point; flat across sizes.
		return append(arms, framework(defaultBest()))
	}
	series, err := grid(o.firstSeed(), arms, func(w *workload, c [][]cell) []Figure7Series {
		var out []Figure7Series
		for i, plm := range plms {
			pts := make([]baselines.LearningCurvePoint, len(clamped))
			for j, n := range clamped {
				pts[j] = baselines.LearningCurvePoint{TrainSize: n, F1: c[i*len(clamped)+j][0].conf.F1()}
			}
			out = append(out, Figure7Series{Dataset: w.name, Method: plm.Name, Points: pts})
		}
		batcher := c[len(c)-1][0]
		flat := make([]baselines.LearningCurvePoint, len(clamped))
		for i, s := range clamped {
			flat[i] = baselines.LearningCurvePoint{TrainSize: s, F1: batcher.conf.F1()}
		}
		return append(out, Figure7Series{
			Dataset:      w.name,
			Method:       "BatchER",
			Points:       flat,
			LabeledPairs: batcher.labeled,
		})
	})
	return slices.Concat(series...), err
}

// FormatFigure7 renders the curves as text.
func FormatFigure7(w io.Writer, series []Figure7Series) {
	fprintf(w, "Figure 7: F1 vs training samples (PLM baselines) / labeled demos (BatchER)\n")
	current := ""
	for _, s := range series {
		if s.Dataset != current {
			current = s.Dataset
			fprintf(w, "%s:\n", current)
		}
		fprintf(w, "  %-10s", s.Method)
		for _, p := range s.Points {
			fprintf(w, " (%d, %.1f)", p.TrainSize, p.F1)
		}
		if s.Method == "BatchER" {
			fprintf(w, "  [labels: %d]", s.LabeledPairs)
		}
		fprintf(w, "\n")
	}
}
