// Command erbench regenerates the paper's tables and figures on the
// synthetic benchmark clones.
//
// Usage:
//
//	erbench [-exp all|table3|fig6|table4|fig7|table5|table6|table7|ablations|extended|findings]
//	        [-datasets WA,AB,...] [-seeds 1,2,3] [-qcap N] [-poolcap N]
//	erbench -exp cascade [-json] [-rows N] [-window N] [-trainpairs N]
//	        [-taus 0.05:0.95,0.1:0.9] [-margins 0,0.25]
//
// With no flags it runs every experiment on all eight datasets with three
// seeds, printing each table in the paper's layout to stdout; Fig 6,
// Table V and the ablations run on the paper's subsets unless -datasets
// names a list. Each experiment's "[name done in ...]" timing line goes
// to stderr.
//
// The findings checklist grades the tables printed above it: Tables
// III-VII, Fig 7 and the Llama2 check. -exp findings runs those six
// experiments too, at -qcap 300 unless -qcap is set.
//
// -exp cascade (not part of "all") sweeps the model cascade's cost/F1
// frontier: an all-expensive baseline, then one run per (tau-lo:tau-hi)
// routing band x escalation margin with the calibrated pre-filter and
// tiered routing in play. With -json the sweep is emitted to stdout as
// a BENCH_*-style document (goos/goarch/cpu/date + per-point records) —
// this is how BENCH_cascade.json is generated:
//
//	erbench -exp cascade -json > BENCH_cascade.json
//
// Wall-clock and per-layer timings of an ermatch-shaped run are the
// benchmark module's job: bash benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"batcher/internal/datagen"
	"batcher/internal/eval"
)

// splitList splits a comma-separated flag value, trimming whitespace;
// empty input means "use defaults" and yields nil.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	fields := strings.Split(s, ",")
	for i, f := range fields {
		fields[i] = strings.TrimSpace(f)
	}
	return fields
}

// expNames lists every -exp value.
func expNames() []string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "cascade")
}

// checkExperiment rejects an -exp value that names no experiment.
func checkExperiment(name string) error {
	if names := expNames(); !slices.Contains(names, name) {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", name, strings.Join(names, ", "))
	}
	return nil
}

// checkDatasets rejects a -datasets code that names no dataset.
func checkDatasets(codes []string) error {
	for _, c := range codes {
		if _, err := datagen.Lookup(c); err != nil {
			return fmt.Errorf("unknown dataset %q (want one of: %s)", c, strings.Join(datagen.Names(), ", "))
		}
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(expNames(), ", "))
	datasets := flag.String("datasets", "", "comma-separated dataset codes (default all, or the experiment's paper subset)")
	seeds := flag.String("seeds", "1,2,3", "comma-separated run seeds")
	qcap := flag.Int("qcap", 0, "cap on test questions per dataset (0 = all)")
	poolcap := flag.Int("poolcap", 0, "cap on demonstration pool size (0 = all)")
	jsonOut := flag.Bool("json", false, "emit a BENCH_*-style JSON document to stdout (cascade experiment only)")
	rows := flag.Int("rows", 0, "cascade sweep: records per table (0 = default 8000)")
	window := flag.Int("window", 0, "cascade sweep: StreamWindow (0 = default 512)")
	trainpairs := flag.Int("trainpairs", 0, "cascade sweep: labeled pairs for pre-filter training (0 = default 500)")
	taus := flag.String("taus", "", "cascade sweep: lo:hi routing thresholds (default 0.05:0.95,0.1:0.9,0.2:0.8)")
	margins := flag.String("margins", "", "cascade sweep: vote-k escalation margins (default 0,0.01,0.25)")
	flag.Parse()

	if err := checkExperiment(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
		os.Exit(2)
	}
	if *exp == "cascade" {
		co := eval.CascadeBenchOptions{
			Rows:       *rows,
			Window:     *window,
			TrainPairs: *trainpairs,
		}
		for _, f := range splitList(*taus) {
			lo, hi, ok := strings.Cut(f, ":")
			tlo, err1 := strconv.ParseFloat(strings.TrimSpace(lo), 64)
			thi, err2 := strconv.ParseFloat(strings.TrimSpace(hi), 64)
			if !ok || err1 != nil || err2 != nil {
				fmt.Fprintf(os.Stderr, "erbench: bad tau point %q, want lo:hi\n", f)
				os.Exit(2)
			}
			co.Taus = append(co.Taus, eval.TauPoint{Lo: tlo, Hi: thi})
		}
		for _, f := range splitList(*margins) {
			m, err := strconv.ParseFloat(f, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "erbench: bad margin %q: %v\n", f, err)
				os.Exit(2)
			}
			co.Margins = append(co.Margins, m)
		}
		start := time.Now()
		res, err := eval.RunCascadeBench(co, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "erbench: cascade: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := eval.WriteBenchJSON(os.Stdout, eval.CascadeBenchFile(co, res)); err != nil {
				fmt.Fprintf(os.Stderr, "erbench: cascade: %v\n", err)
				os.Exit(1)
			}
		} else {
			eval.FormatCascadeBench(os.Stdout, res)
		}
		fmt.Fprintf(os.Stderr, "[cascade done in %v]\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if *jsonOut {
		fmt.Fprintln(os.Stderr, "erbench: -json is only supported with -exp cascade")
		os.Exit(2)
	}

	o := eval.Options{Datasets: splitList(*datasets), QuestionCap: *qcap, PoolCap: *poolcap}
	if err := checkDatasets(o.Datasets); err != nil {
		fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
		os.Exit(2)
	}
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "erbench: bad seed %q: %v\n", s, err)
			os.Exit(2)
		}
		o.Seeds = append(o.Seeds, v)
	}

	if *exp == "findings" && o.QuestionCap == 0 {
		o.QuestionCap = 300 // checks need directions, not scale
	}
	var p eval.Paper
	for _, e := range experiments {
		if !e.selectedBy(*exp) {
			continue
		}
		start := time.Now()
		if err := e.run(o, &p); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}
}

// experiment is one -exp entry. run prints its result and stores in p
// what the findings checklist reads; graded marks those entries.
type experiment struct {
	name   string
	graded bool
	run    func(o eval.Options, p *eval.Paper) error
}

// selectedBy reports whether -exp exp runs e: "all" runs every entry,
// and "findings" runs the graded ones before itself, so its checklist
// grades the tables printed above it.
func (e experiment) selectedBy(exp string) bool {
	return exp == "all" || exp == e.name || exp == "findings" && e.graded
}

// experiments are the runs -exp all makes, in order. -exp names one of
// them, "all", or "cascade", which runs alone (see expNames).
var experiments = []experiment{
	{"table3", true, func(o eval.Options, p *eval.Paper) error {
		rows, err := eval.RunTable3(o)
		if err != nil {
			return err
		}
		p.Table3 = rows
		eval.FormatTable3(os.Stdout, rows)
		return nil
	}},
	{"fig6", false, func(o eval.Options, _ *eval.Paper) error {
		bars, err := eval.RunFigure6(o)
		if err != nil {
			return err
		}
		eval.FormatFigure6(os.Stdout, bars)
		return nil
	}},
	{"table4", true, func(o eval.Options, p *eval.Paper) error {
		rows, err := eval.RunTable4(o)
		if err != nil {
			return err
		}
		p.Table4 = rows
		eval.FormatTable4(os.Stdout, rows)
		return nil
	}},
	{"fig7", true, func(o eval.Options, p *eval.Paper) error {
		series, err := eval.RunFigure7(o, nil)
		if err != nil {
			return err
		}
		p.Figure7 = series
		eval.FormatFigure7(os.Stdout, series)
		return nil
	}},
	{"table5", true, func(o eval.Options, p *eval.Paper) error {
		rows, err := eval.RunTable5(o)
		if err != nil {
			return err
		}
		p.Table5 = rows
		eval.FormatTable5(os.Stdout, rows)
		return nil
	}},
	{"table6", true, func(o eval.Options, p *eval.Paper) error {
		rows, err := eval.RunTable6(o)
		if err != nil {
			return err
		}
		p.Table6 = rows
		eval.FormatTable6(os.Stdout, rows)
		frac, err := eval.RunLlama2BatchCheck(o)
		if err != nil {
			return err
		}
		p.Llama2Unanswered = frac
		fmt.Printf("Llama2-chat-70B under batch prompting: %.0f%% of questions unanswered (omitted, as in the paper)\n", 100*frac)
		return nil
	}},
	{"table7", true, func(o eval.Options, p *eval.Paper) error {
		rows, err := eval.RunTable7(o)
		if err != nil {
			return err
		}
		p.Table7 = rows
		eval.FormatTable7(os.Stdout, rows)
		return nil
	}},
	{"ablations", false, func(o eval.Options, _ *eval.Paper) error {
		sweeps := []func() ([]eval.AblationResult, error){
			func() ([]eval.AblationResult, error) { return eval.RunAblationCoverThreshold(o, nil) },
			func() ([]eval.AblationResult, error) { return eval.RunAblationBatchSize(o, nil) },
			func() ([]eval.AblationResult, error) { return eval.RunAblationDistance(o) },
			func() ([]eval.AblationResult, error) { return eval.RunAblationParallelism(o) },
		}
		for _, sweep := range sweeps {
			res, err := sweep()
			if err != nil {
				return err
			}
			eval.FormatAblations(os.Stdout, res)
		}
		return nil
	}},
	{"extended", false, func(o eval.Options, _ *eval.Paper) error {
		if o.QuestionCap == 0 {
			o.QuestionCap = 400
		}
		rows, err := eval.RunExtendedSelection(o)
		if err != nil {
			return err
		}
		eval.FormatExtendedSelection(os.Stdout, rows)
		return nil
	}},
	{"findings", false, func(_ eval.Options, p *eval.Paper) error {
		eval.FormatFindings(os.Stdout, eval.CheckFindings(*p))
		return nil
	}},
}
