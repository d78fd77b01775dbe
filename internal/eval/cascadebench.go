package eval

import (
	"context"
	"fmt"
	"io"
	"time"

	"batcher/internal/blocking"
	"batcher/internal/cascade"
	"batcher/internal/core"
	"batcher/internal/cost"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/metrics"
	"batcher/internal/pipeline"
)

// TauPoint is one (tau-lo, tau-hi) routing setting of the cascade sweep.
type TauPoint struct {
	Lo, Hi float64
}

// The cascade sweep's fixed settings: per-window batch-prompt
// concurrency, and the seed of data generation, training and matching.
const (
	cascadeBenchParallelism = 8
	cascadeBenchSeed        = 1
)

// CascadeBenchOptions sizes the cascade cost/F1 frontier behind
// BENCH_cascade.json: a synthetic Rows x Rows run matched once with the
// expensive model alone (the baseline every point is judged against) and
// once per (tau, escalation-margin) setting with the full cascade —
// calibrated pre-filter, cheap tier, escalation to the expensive tier.
type CascadeBenchOptions struct {
	// Rows is the record count per table (default 8000).
	Rows int
	// Window is the pipeline StreamWindow (default 512).
	Window int
	// TrainPairs is how many labeled pairs the pre-filter is trained on;
	// each is billed at cost.LabelPerPair against the cascade points
	// (default 500).
	TrainPairs int
	// Taus are the (tau-lo, tau-hi) routing points to sweep
	// (default (0.05,0.95), (0.1,0.9), (0.2,0.8)).
	Taus []TauPoint
	// Margins are the vote-k escalation thresholds to sweep (default 0,
	// 0.01, 0.25: cheap-tier-only, mixed, and escalate-nearly-all).
	Margins []float64
}

func (o CascadeBenchOptions) withDefaults() CascadeBenchOptions {
	if o.Rows <= 0 {
		o.Rows = 8000
	}
	if o.Window <= 0 {
		o.Window = 512
	}
	if o.TrainPairs <= 0 {
		o.TrainPairs = 500
	}
	if len(o.Taus) == 0 {
		o.Taus = []TauPoint{{0.05, 0.95}, {0.1, 0.9}, {0.2, 0.8}}
	}
	if len(o.Margins) == 0 {
		o.Margins = []float64{0, 0.01, 0.25}
	}
	return o
}

// CascadeBenchPoint is one measured run of the frontier: the all-
// expensive baseline or one cascade setting.
type CascadeBenchPoint struct {
	// Setting names the run ("all-expensive", "tau=0.05:0.95 m=0").
	Setting string
	// TauLo, TauHi, and Margin are the cascade knobs (zero on the
	// baseline).
	TauLo, TauHi, Margin float64
	// F1 is the matching F1 over all blocked candidates, in points
	// (0-100); DeltaF1 is baseline F1 minus this run's (positive =
	// quality lost to the cascade).
	F1, DeltaF1 float64
	// API, Label, and Train are the dollar components: API spend, demo
	// annotation, and pre-filter training labels (cascade points only).
	API, Label, Train float64
	// Total = API + Label + Train. CostReduction is baseline Total over
	// this run's Total (1 for the baseline).
	Total, CostReduction float64
	// CheapCalls/CheapUSD and ExpensiveCalls/ExpensiveUSD split the API
	// spend per tier.
	CheapCalls, ExpensiveCalls int
	CheapUSD, ExpensiveUSD     float64
	// AutoResolved and Candidates describe the routing split.
	AutoResolved, Candidates int
	// Wall is the end-to-end Run duration.
	Wall time.Duration
}

// CascadeBenchResult is the full frontier: the baseline plus one point
// per swept setting.
type CascadeBenchResult struct {
	Baseline CascadeBenchPoint
	Points   []CascadeBenchPoint
}

// trainSample draws n labeled pairs spread evenly over the split so both
// classes are represented regardless of the split's internal ordering.
func trainSample(train []entity.Pair, n int) []entity.Pair {
	if n >= len(train) {
		return train
	}
	out := make([]entity.Pair, 0, n)
	stride := len(train) / n
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(train) && len(out) < n; i += stride {
		out = append(out, train[i])
	}
	return out
}

// RunCascadeBench measures the cascade's cost/F1 frontier. Every run
// matches the same blocked candidates with the same seed; only the
// routing configuration varies.
func RunCascadeBench(o CascadeBenchOptions, progress io.Writer) (*CascadeBenchResult, error) {
	o = o.withDefaults()
	d, err := datagen.GenerateCustom(datagen.PipelineBenchSpec(o.Rows), cascadeBenchSeed)
	if err != nil {
		return nil, err
	}
	oracle := llm.BuildOracle(d.Pairs)
	sample := trainSample(entity.SplitPairs(d.Pairs).Train, o.TrainPairs)
	pf, err := cascade.Train(sample, cascade.Config{Seed: cascadeBenchSeed})
	if err != nil {
		return nil, fmt.Errorf("cascadebench: training the pre-filter: %w", err)
	}

	run := func(p CascadeBenchPoint, prefilter *cascade.Prefilter, cheapModel string, margin float64) (CascadeBenchPoint, error) {
		conf := &metrics.Confusion{}
		cfg := pipeline.Config{
			Blocker: &blocking.TokenBlocker{Attr: "title", MinShared: 2},
			Matcher: core.Config{
				Seed:           cascadeBenchSeed,
				Parallelism:    cascadeBenchParallelism,
				Model:          llm.GPT4,
				CheapModel:     cheapModel,
				EscalateMargin: margin,
			},
			StreamWindow: o.Window,
			Prefilter:    prefilter,
			OnPair: func(pair entity.Pair, pred entity.Label) {
				gold, ok := oracle.Lookup(pair)
				if !ok {
					// Blocked candidates outside the generated pair list
					// are true non-matches by construction.
					gold = entity.NonMatch
				}
				conf.Add(gold, pred)
			},
		}
		client := llm.NewSimulated(oracle, cascadeBenchSeed)
		start := time.Now()
		rep, err := pipeline.Run(context.Background(), cfg, client, d.TableA, d.TableB)
		if err != nil {
			return p, fmt.Errorf("cascadebench: %s: %w", p.Setting, err)
		}
		p.Wall = time.Since(start)
		p.F1 = conf.F1()
		p.API = rep.Result.Ledger.API()
		p.Label = rep.Result.Ledger.Labeling()
		if prefilter != nil {
			p.Train = float64(len(sample)) * cost.LabelPerPair
		}
		p.Total = p.API + p.Label + p.Train
		p.AutoResolved = rep.AutoResolved
		p.Candidates = rep.Candidates
		buckets := rep.Result.Ledger.TierBreakdown()
		for _, b := range buckets {
			switch b.Tier {
			case cost.TierCheap:
				p.CheapCalls, p.CheapUSD = b.Calls, b.Dollars
			case cost.TierExpensive:
				p.ExpensiveCalls, p.ExpensiveUSD = b.Calls, b.Dollars
			}
		}
		if len(buckets) == 0 {
			// Untiered baseline: every call is the expensive model.
			p.ExpensiveCalls, p.ExpensiveUSD = rep.Result.Ledger.Calls(), p.API
		}
		return p, nil
	}

	base, err := run(CascadeBenchPoint{Setting: "all-expensive", CostReduction: 1}, nil, "", 0)
	if err != nil {
		return nil, err
	}
	if progress != nil {
		fmt.Fprintf(progress, "cascade bench: %-24s F1 %.2f  total $%.2f  (%d candidates)\n",
			base.Setting, base.F1, base.Total, base.Candidates)
	}
	out := &CascadeBenchResult{Baseline: base}
	for _, tp := range o.Taus {
		routed := pf.WithThresholds(tp.Lo, tp.Hi)
		for _, m := range o.Margins {
			p := CascadeBenchPoint{
				Setting: fmt.Sprintf("tau=%g:%g m=%g", tp.Lo, tp.Hi, m),
				TauLo:   tp.Lo, TauHi: tp.Hi, Margin: m,
			}
			p, err := run(p, routed, llm.GPT35Turbo0301, m)
			if err != nil {
				return nil, err
			}
			p.DeltaF1 = base.F1 - p.F1
			if p.Total > 0 {
				p.CostReduction = base.Total / p.Total
			}
			out.Points = append(out.Points, p)
			if progress != nil {
				fmt.Fprintf(progress, "cascade bench: %-24s F1 %.2f (Δ%.2f)  total $%.2f  %5.1fx cheaper  auto %d/%d\n",
					p.Setting, p.F1, p.DeltaF1, p.Total, p.CostReduction, p.AutoResolved, p.Candidates)
			}
		}
	}
	return out, nil
}

// FormatCascadeBench renders the frontier as a text table.
func FormatCascadeBench(w io.Writer, r *CascadeBenchResult) {
	fprintf(w, "Model cascade: cost/F1 frontier vs all-expensive baseline\n")
	fprintf(w, "%-22s %-8s %-8s %-10s %-9s %-12s %-12s %-10s\n",
		"setting", "F1", "ΔF1", "total $", "vs base", "cheap calls", "exp calls", "auto")
	row := func(p CascadeBenchPoint) {
		fprintf(w, "%-22s %-8.2f %-8.2f %-10.2f %-9.2f %-12d %-12d %-10d\n",
			p.Setting, p.F1, p.DeltaF1, p.Total, p.CostReduction,
			p.CheapCalls, p.ExpensiveCalls, p.AutoResolved)
	}
	row(r.Baseline)
	for _, p := range r.Points {
		row(p)
	}
}

// CascadeBenchFile assembles the frontier into a BENCH_cascade.json
// document.
func CascadeBenchFile(o CascadeBenchOptions, r *CascadeBenchResult) BenchFile {
	o = o.withDefaults()
	f := BenchFile{
		BenchMeta: NewBenchMeta(fmt.Sprintf(
			"Model-cascade matching: cost/F1 frontier of calibrated tiered routing on a synthetic %dx%d run (StreamWindow %d, batch Parallelism %d, seed %d) under simulated LLM tiers (%s cheap, %s expensive). The baseline matches every blocked candidate with the expensive model alone; each cascade point trains a calibrated pre-filter on %d labeled pairs (billed), auto-resolves outside its (tau-lo, tau-hi) band, sends the ambiguous band to the cheap tier, and escalates low-margin or Unknown batches to the expensive tier. cost_reduction_x is baseline total dollars over point total dollars; delta_f1_pts is baseline F1 minus point F1 in points. Regenerate with: go run ./cmd/erbench -exp cascade -json > BENCH_cascade.json",
			o.Rows, o.Rows, o.Window, cascadeBenchParallelism, cascadeBenchSeed,
			llm.GPT35Turbo0301, llm.GPT4, o.TrainPairs)),
		Results: make(map[string]any, len(r.Points)+1),
	}
	record := func(key string, p CascadeBenchPoint) {
		f.Results[key] = map[string]any{
			"ns_per_op":        p.Wall.Nanoseconds(),
			"wall_ms":          float64(p.Wall.Nanoseconds()) / 1e6,
			"f1_pts":           p.F1,
			"delta_f1_pts":     p.DeltaF1,
			"api_usd":          p.API,
			"label_usd":        p.Label,
			"train_label_usd":  p.Train,
			"total_usd":        p.Total,
			"cost_reduction_x": p.CostReduction,
			"cheap_calls":      p.CheapCalls,
			"cheap_usd":        p.CheapUSD,
			"expensive_calls":  p.ExpensiveCalls,
			"expensive_usd":    p.ExpensiveUSD,
			"auto_resolved":    p.AutoResolved,
			"candidates":       p.Candidates,
			"tau_lo":           p.TauLo,
			"tau_hi":           p.TauHi,
			"escalate_margin":  p.Margin,
		}
	}
	record("CascadeRun/baseline_all_expensive", r.Baseline)
	for _, p := range r.Points {
		record(fmt.Sprintf("CascadeRun/tau_%g_%g/margin_%g", p.TauLo, p.TauHi, p.Margin), p)
	}
	return f
}
