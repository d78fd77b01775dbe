package eval

import (
	"io"

	"batcher/internal/baselines"
	"batcher/internal/core"
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

// RunFigure6 reproduces Figure 6: precision/recall/F1 of standard versus
// batch prompting on WA and AB, averaged over seeds.
func RunFigure6(o Options) ([]Figure6Bar, error) {
	o = o.withDefaults()
	if len(o.Datasets) == 8 {
		o.Datasets = Figure6Datasets
	}
	var bars []Figure6Bar
	for _, name := range o.Datasets {
		w, err := loadWorkload(name, o)
		if err != nil {
			return nil, err
		}
		methods := []struct {
			label string
			cfg   core.Config
		}{
			{"Standard", core.Config{BatchSize: 1, Selection: core.FixedSelection}},
			{"Batch", core.Config{BatchSize: 8, Batching: core.RandomBatching, Selection: core.FixedSelection}},
		}
		for _, m := range methods {
			var agg metrics.Confusion
			for _, seed := range o.Seeds {
				c, _, err := runFramework(w, m.cfg, seed)
				if err != nil {
					return nil, err
				}
				agg.TP += c.TP
				agg.FP += c.FP
				agg.FN += c.FN
				agg.TN += c.TN
			}
			bars = append(bars, Figure6Bar{
				Dataset:   name,
				Method:    m.label,
				Precision: 100 * agg.Precision(),
				Recall:    100 * agg.Recall(),
				F1:        agg.F1(),
			})
		}
	}
	return bars, nil
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

// RunFigure7 reproduces Figure 7: F1 versus number of labeled training
// samples for Ditto/JointBERT/RobEM, against BATCHER's flat line.
func RunFigure7(o Options, sizes []int) ([]Figure7Series, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = DefaultCurveSizes
	}
	var out []Figure7Series
	for _, name := range o.Datasets {
		w, err := loadWorkload(name, o)
		if err != nil {
			return nil, err
		}
		// Clamp sweep sizes to the dataset's train split.
		var clamped []int
		for _, s := range sizes {
			if s > len(w.train) {
				s = len(w.train)
			}
			if len(clamped) == 0 || clamped[len(clamped)-1] != s {
				clamped = append(clamped, s)
			}
		}
		for _, plm := range baselines.PLMs() {
			pts, err := plm.LearningCurve(w.train, w.questions, clamped, o.Seeds[0])
			if err != nil {
				return nil, err
			}
			out = append(out, Figure7Series{Dataset: name, Method: plm.Name, Points: pts})
		}
		// BATCHER: one run at the best design point; flat across sizes.
		c, res, err := runFramework(w, defaultBest(), o.Seeds[0])
		if err != nil {
			return nil, err
		}
		flat := make([]baselines.LearningCurvePoint, len(clamped))
		for i, s := range clamped {
			flat[i] = baselines.LearningCurvePoint{TrainSize: s, F1: c.F1()}
		}
		out = append(out, Figure7Series{
			Dataset:      name,
			Method:       "BatchER",
			Points:       flat,
			LabeledPairs: res.DemosLabeled,
		})
	}
	return out, nil
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
