// Package eval reproduces the paper's experiments: one runner per table
// and figure of Section VI, each returning structured results plus a text
// rendering that mirrors the paper's layout. Every runner is a list of
// arms and a row shaper over one dataset × arm × seed loop, grid. The
// root-level bench harness and cmd/erbench are thin wrappers over these
// runners.
package eval

import (
	"context"
	"fmt"
	"io"

	"batcher/internal/baselines"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/metrics"
	"batcher/internal/workpool"
)

// Options controls an experiment run.
type Options struct {
	// Datasets is the subset of benchmark codes to run; nil means all
	// eight Table II datasets, or the paper's subset for Fig 6, Table V
	// and the ablations (Figure6Datasets, Table5Datasets,
	// AblationDatasets).
	Datasets []string
	// Seeds are the run seeds; the paper averages three runs.
	Seeds []int64
	// QuestionCap truncates each dataset's test questions (0 = all).
	// Benches use small caps; cmd/erbench runs the full sets.
	QuestionCap int
	// PoolCap truncates the demonstration pool (0 = all).
	PoolCap int
}

// dataSeed seeds the synthetic benchmark generator: every experiment
// and every run seed reads the same generated datasets.
const dataSeed = 1

// subset returns o with defaults applied, running the paper's datasets
// for one experiment when o names none.
func (o Options) subset(paper []string) Options {
	if len(o.Datasets) == 0 {
		o.Datasets = paper
	}
	return o.withDefaults()
}

// firstSeed returns o with defaults applied, keeping only the first
// seed: the experiments the paper reports from a single run.
func (o Options) firstSeed() Options {
	o = o.withDefaults()
	o.Seeds = o.Seeds[:1]
	return o
}

func (o Options) withDefaults() Options {
	if len(o.Datasets) == 0 {
		o.Datasets = datagen.Names()
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	return o
}

// workload is a prepared dataset slice: questions with gold labels, the
// unlabeled demonstration pool (with hidden labels for annotation), and
// the oracle the simulated LLM answers from.
type workload struct {
	name      string
	questions []entity.Pair
	pool      []entity.Pair
	train     []entity.Pair // labeled train split, for PLM baselines
	oracle    llm.MapOracle
}

// loadWorkload prepares one dataset under the options.
func loadWorkload(name string, o Options) (*workload, error) {
	d, err := datagen.GenerateByName(name, dataSeed)
	if err != nil {
		return nil, err
	}
	split := entity.SplitPairs(d.Pairs)
	questions := split.Test
	if o.QuestionCap > 0 && len(questions) > o.QuestionCap {
		questions = questions[:o.QuestionCap]
	}
	pool := split.Train
	if o.PoolCap > 0 && len(pool) > o.PoolCap {
		pool = pool[:o.PoolCap]
	}
	all := make([]entity.Pair, 0, len(questions)+len(pool))
	all = append(all, questions...)
	all = append(all, pool...)
	return &workload{
		name:      name,
		questions: questions,
		pool:      pool,
		train:     split.Train,
		oracle:    llm.BuildOracle(all),
	}, nil
}

// cell is what one arm leaves behind at one seed.
type cell struct {
	conf       metrics.Confusion
	api, label float64 // dollars
	labeled    int     // pool pairs annotated
	unanswered int     // questions left Unknown
}

// arm answers a workload at one seed: a BATCHER design point, the
// ManualPrompt baseline, or one PLM at one training size.
type arm func(w *workload, seed int64) (cell, error)

// grid is the one loop of the paper harness. It loads each dataset of o
// in turn and answers it with every arm at every seed of o, fanning the
// cells out across workpool.Workers(); row then shapes the dataset's
// cells[arm][seed] into one result. Each task writes only its own slot
// and row folds each arm's seeds in seed order, so every sum and mean
// is bit-identical to a serial loop's. The error is the first in (arm,
// seed) order.
func grid[R any](o Options, arms func(*workload) []arm, row func(w *workload, cells [][]cell) R) ([]R, error) {
	var out []R
	for _, name := range o.Datasets {
		w, err := loadWorkload(name, o)
		if err != nil {
			return nil, err
		}
		as := arms(w)
		cells := make([][]cell, len(as))
		for a := range cells {
			cells[a] = make([]cell, len(o.Seeds))
		}
		errs := make([]error, len(as)*len(o.Seeds))
		workpool.For(workpool.Workers(), len(errs), func(i int) {
			a, s := i/len(o.Seeds), i%len(o.Seeds)
			cells[a][s], errs[i] = as[a](w, o.Seeds[s])
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		out = append(out, row(w, cells))
	}
	return out, nil
}

// frameworks returns the same BATCHER arms for every workload, one per
// configuration.
func frameworks(cfgs ...core.Config) func(*workload) []arm {
	arms := make([]arm, len(cfgs))
	for i, cfg := range cfgs {
		arms[i] = framework(cfg)
	}
	return func(*workload) []arm { return arms }
}

// framework is the arm that resolves the workload with BATCHER at cfg.
func framework(cfg core.Config) arm {
	return func(w *workload, seed int64) (cell, error) {
		cfg := cfg
		cfg.Seed = seed
		res, err := core.NewFromConfig(llm.NewSimulated(w.oracle, seed), cfg).Resolve(context.Background(), w.questions, w.pool)
		if err != nil {
			return cell{}, fmt.Errorf("eval: %s: %w", w.name, err)
		}
		c := cell{api: res.Ledger.API(), label: res.Ledger.Labeling(), labeled: res.Ledger.LabeledPairs()}
		c.conf.AddAll(entity.Labels(w.questions), res.Pred)
		for _, p := range res.Pred {
			if p == entity.Unknown {
				c.unanswered++
			}
		}
		return c, nil
	}
}

// manualPrompt is the arm that answers with the ManualPrompt baseline,
// curating its demonstrations from the labeled train split.
func manualPrompt(w *workload, seed int64) (cell, error) {
	res, err := baselines.ManualPrompt{}.Run(context.Background(), w.questions, w.train, llm.NewSimulated(w.oracle, seed))
	if err != nil {
		return cell{}, err
	}
	c := cell{api: res.Ledger.API()}
	c.conf.AddAll(entity.Labels(w.questions), res.Pred)
	return c, nil
}

// trainPLM is the arm that fine-tunes p on the first n train pairs and
// scores it on the questions.
func trainPLM(p *baselines.PLM, n int) arm {
	return func(w *workload, seed int64) (cell, error) {
		fitted, err := p.Train(w.train, n, seed)
		if err != nil {
			return cell{}, err
		}
		return cell{conf: fitted.Evaluate(w.questions)}, nil
	}
}

// summarize folds one arm's seeds in seed order: F1 mean±σ and the mean
// API and labeling dollars.
func summarize(seeds []cell) (f1 metrics.Summary, api, label float64) {
	f1s := make([]float64, len(seeds))
	for i, c := range seeds {
		f1s[i] = c.conf.F1()
		api += c.api
		label += c.label
	}
	n := float64(len(seeds))
	return metrics.Summarize(f1s), api / n, label / n
}

// defaultBest returns the paper's best design point: diversity batching +
// covering selection.
func defaultBest() core.Config {
	return core.Config{
		Batching:  core.DiversityBatching,
		Selection: core.CoveringSelection,
	}
}

// fprintf writes formatted output, ignoring errors (report rendering).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
