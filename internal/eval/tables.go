package eval

import (
	"io"

	"batcher/internal/core"
	"batcher/internal/feature"
	"batcher/internal/llm"
	"batcher/internal/metrics"
)

// --- Table III: standard vs batch prompting -------------------------------

// Table3Row compares standard and batch prompting on one dataset.
type Table3Row struct {
	Dataset    string
	StandardF1 metrics.Summary
	BatchF1    metrics.Summary
	// API costs are per-run means in dollars.
	StandardAPI float64
	BatchAPI    float64
}

// RunTable3 reproduces Table III: both methods use the same 8 fixed
// random demonstrations; batch prompting uses batch size 8, standard
// prompting batch size 1. Scores are mean±σ over the option seeds.
func RunTable3(o Options) ([]Table3Row, error) {
	return grid(o.withDefaults(), frameworks(standardPrompting, batchPrompting), func(w *workload, c [][]cell) Table3Row {
		row := Table3Row{Dataset: w.name}
		row.StandardF1, row.StandardAPI, _ = summarize(c[0])
		row.BatchF1, row.BatchAPI, _ = summarize(c[1])
		return row
	})
}

// standardPrompting and batchPrompting are Table III's two methods:
// the same 8 fixed random demonstrations, one question per prompt or a
// random batch of 8.
var (
	standardPrompting = core.Config{BatchSize: 1, Selection: core.FixedSelection}
	batchPrompting    = core.Config{BatchSize: 8, Batching: core.RandomBatching, Selection: core.FixedSelection}
)

// FormatTable3 renders rows like the paper's Table III.
func FormatTable3(w io.Writer, rows []Table3Row) {
	fprintf(w, "Table III: Batch Prompting vs Standard Prompting\n")
	fprintf(w, "%-6s %-14s %-14s %10s %10s %7s\n", "Data", "Std F1", "Batch F1", "Std $", "Batch $", "Saving")
	for _, r := range rows {
		saving := 0.0
		if r.BatchAPI > 0 {
			saving = r.StandardAPI / r.BatchAPI
		}
		fprintf(w, "%-6s %-14s %-14s %10.2f %10.2f %6.1fx\n",
			r.Dataset, r.StandardF1.String(), r.BatchF1.String(), r.StandardAPI, r.BatchAPI, saving)
	}
}

// --- Table IV: design space -------------------------------------------------

// Table4Cell is one design point's scores on one dataset.
type Table4Cell struct {
	Batching  core.BatchStrategy
	Selection core.SelectStrategy
	F1        metrics.Summary
	API       float64
	Label     float64
}

// Table4Row holds the full 3x4 grid for one dataset.
type Table4Row struct {
	Dataset string
	Cells   []Table4Cell
}

// RunTable4 reproduces Table IV: all combinations of question batching and
// demonstration selection.
func RunTable4(o Options) ([]Table4Row, error) {
	var points []core.Config
	for _, bs := range core.BatchStrategies() {
		for _, ss := range core.SelectStrategies() {
			points = append(points, core.Config{Batching: bs, Selection: ss})
		}
	}
	return grid(o.withDefaults(), frameworks(points...), func(w *workload, c [][]cell) Table4Row {
		row := Table4Row{Dataset: w.name}
		for i, p := range points {
			cell := Table4Cell{Batching: p.Batching, Selection: p.Selection}
			cell.F1, cell.API, cell.Label = summarize(c[i])
			row.Cells = append(row.Cells, cell)
		}
		return row
	})
}

// Best returns the cell with the highest mean F1.
func (r Table4Row) Best() Table4Cell {
	best := r.Cells[0]
	for _, c := range r.Cells[1:] {
		if c.F1.Mean > best.F1.Mean {
			best = c
		}
	}
	return best
}

// Cell returns the scores for a specific design point.
func (r Table4Row) Cell(b core.BatchStrategy, s core.SelectStrategy) Table4Cell {
	for _, c := range r.Cells {
		if c.Batching == b && c.Selection == s {
			return c
		}
	}
	return Table4Cell{}
}

// FormatTable4 renders the design-space grid.
func FormatTable4(w io.Writer, rows []Table4Row) {
	fprintf(w, "Table IV: Design Space (F1 / API $ / Label $)\n")
	for _, r := range rows {
		fprintf(w, "%s:\n", r.Dataset)
		for _, bs := range core.BatchStrategies() {
			fprintf(w, "  %-11s", bs.String())
			for _, ss := range core.SelectStrategies() {
				c := r.Cell(bs, ss)
				fprintf(w, " | %-10s %6.2f $%.2f/$%.2f", ss.String(), c.F1.Mean, c.API, c.Label)
			}
			fprintf(w, "\n")
		}
	}
}

// --- Table V: ManualPrompt vs BATCHER ---------------------------------------

// Table5Row compares ManualPrompt with the best BATCHER configuration.
type Table5Row struct {
	Dataset   string
	ManualF1  float64
	ManualAPI float64
	BatchF1   float64
	BatchAPI  float64
}

// Table5Datasets lists the datasets the original ManualPrompt paper
// evaluated (AB is absent, as noted in Section VI-E).
var Table5Datasets = []string{"WA", "AG", "DS", "DA", "FZ", "IA", "Beer"}

// RunTable5 reproduces Table V at the first seed, on Table5Datasets
// unless o names its own.
func RunTable5(o Options) ([]Table5Row, error) {
	arms := func(*workload) []arm { return []arm{manualPrompt, framework(defaultBest())} }
	return grid(o.subset(Table5Datasets).firstSeed(), arms, func(w *workload, c [][]cell) Table5Row {
		manual, batch := c[0][0], c[1][0]
		return Table5Row{Dataset: w.name,
			ManualF1: manual.conf.F1(), ManualAPI: manual.api,
			BatchF1: batch.conf.F1(), BatchAPI: batch.api}
	})
}

// FormatTable5 renders Table V.
func FormatTable5(w io.Writer, rows []Table5Row) {
	fprintf(w, "Table V: Manual Prompting vs Batch Prompting\n")
	fprintf(w, "%-6s %12s %12s %12s %12s\n", "Data", "Manual F1", "Manual $", "Batch F1", "Batch $")
	for _, r := range rows {
		fprintf(w, "%-6s %12.2f %12.2f %12.2f %12.2f\n",
			r.Dataset, r.ManualF1, r.ManualAPI, r.BatchF1, r.BatchAPI)
	}
}

// --- Table VI: underlying LLMs ----------------------------------------------

// Table6Row scores one dataset across underlying models.
type Table6Row struct {
	Dataset string
	// ByModel maps model name to (F1, API$).
	ByModel map[string]Table6Cell
}

// Table6Cell is one model's score.
type Table6Cell struct {
	F1  float64
	API float64
}

// Table6Models are the proprietary models of Table VI (Llama2 is reported
// separately as failing batch prompting).
var Table6Models = []string{llm.GPT35Turbo0301, llm.GPT35Turbo0613, llm.GPT4}

// RunTable6 reproduces Table VI with the best design point per model.
func RunTable6(o Options) ([]Table6Row, error) {
	cfgs := make([]core.Config, len(Table6Models))
	for i, model := range Table6Models {
		cfgs[i] = defaultBest()
		cfgs[i].Model = model
	}
	return grid(o.firstSeed(), frameworks(cfgs...), func(w *workload, c [][]cell) Table6Row {
		row := Table6Row{Dataset: w.name, ByModel: map[string]Table6Cell{}}
		for i, model := range Table6Models {
			row.ByModel[model] = Table6Cell{F1: c[i][0].conf.F1(), API: c[i][0].api}
		}
		return row
	})
}

// RunLlama2BatchCheck verifies the Section VI-F observation that Llama2
// fails to produce usable output under batch prompting: it returns the
// fraction of questions that received no parseable answer.
func RunLlama2BatchCheck(o Options) (float64, error) {
	o = o.firstSeed()
	o.Datasets = o.Datasets[:1]
	cfg := defaultBest()
	cfg.Model = llm.Llama2Chat70B
	shares, err := grid(o, frameworks(cfg), func(w *workload, c [][]cell) float64 {
		return float64(c[0][0].unanswered) / float64(len(w.questions))
	})
	if err != nil {
		return 0, err
	}
	return shares[0], nil
}

// FormatTable6 renders Table VI.
func FormatTable6(w io.Writer, rows []Table6Row) {
	fprintf(w, "Table VI: Underlying LLMs (F1 / API $)\n")
	fprintf(w, "%-6s", "Data")
	for _, m := range Table6Models {
		fprintf(w, " %24s", m)
	}
	fprintf(w, "\n")
	for _, r := range rows {
		fprintf(w, "%-6s", r.Dataset)
		for _, m := range Table6Models {
			c := r.ByModel[m]
			fprintf(w, "      %8.2f / $%7.2f", c.F1, c.API)
		}
		fprintf(w, "\n")
	}
}

// --- Table VII: feature extractors ------------------------------------------

// Table7Row scores the three extractor variants on one dataset.
type Table7Row struct {
	Dataset string
	LR      float64
	JAC     float64
	SEM     float64
}

// RunTable7 reproduces Table VII with the best design point per extractor.
func RunTable7(o Options) ([]Table7Row, error) {
	var cfgs []core.Config
	for _, ex := range []feature.Extractor{feature.NewLR(), feature.NewJAC(), feature.NewSEM()} {
		cfg := defaultBest()
		cfg.Extractor = ex
		cfgs = append(cfgs, cfg)
	}
	return grid(o.withDefaults(), frameworks(cfgs...), func(w *workload, c [][]cell) Table7Row {
		mean := func(i int) float64 { f1, _, _ := summarize(c[i]); return f1.Mean }
		return Table7Row{Dataset: w.name, LR: mean(0), JAC: mean(1), SEM: mean(2)}
	})
}

// FormatTable7 renders Table VII.
func FormatTable7(w io.Writer, rows []Table7Row) {
	fprintf(w, "Table VII: Feature Extractors (F1)\n")
	fprintf(w, "%-6s %12s %12s %12s\n", "Data", "BATCHER-LR", "BATCHER-JAC", "BATCHER-SEM")
	for _, r := range rows {
		fprintf(w, "%-6s %12.2f %12.2f %12.2f\n", r.Dataset, r.LR, r.JAC, r.SEM)
	}
}
