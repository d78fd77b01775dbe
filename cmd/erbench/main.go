// Command erbench regenerates the paper's tables and figures on the
// synthetic benchmark clones.
//
// Usage:
//
//	erbench [-exp all|table3|table4|table5|table6|table7|fig6|fig7]
//	        [-datasets WA,AB,...] [-seeds 1,2,3] [-qcap N] [-poolcap N]
//	erbench -exp cascade [-json] [-rows N] [-window N] [-trainpairs N]
//	        [-taus 0.05:0.95,0.1:0.9] [-margins 0,0.25]
//
// With no flags it runs every experiment on all eight datasets with three
// seeds, printing each table in the paper's layout.
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
	"strconv"
	"strings"
	"time"

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

func main() {
	exp := flag.String("exp", "all", "experiment: all, table3, table4, table5, table6, table7, fig6, fig7, ablations, extended, findings, cascade")
	datasets := flag.String("datasets", "", "comma-separated dataset codes (default all)")
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

	o := eval.Options{QuestionCap: *qcap, PoolCap: *poolcap}
	if *datasets != "" {
		o.Datasets = strings.Split(*datasets, ",")
	}
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "erbench: bad seed %q: %v\n", s, err)
			os.Exit(2)
		}
		o.Seeds = append(o.Seeds, v)
	}

	run := func(name string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table3") {
		run("table3", func() error {
			rows, err := eval.RunTable3(o)
			if err != nil {
				return err
			}
			eval.FormatTable3(os.Stdout, rows)
			return nil
		})
	}
	if want("fig6") {
		run("fig6", func() error {
			bars, err := eval.RunFigure6(o)
			if err != nil {
				return err
			}
			eval.FormatFigure6(os.Stdout, bars)
			return nil
		})
	}
	if want("table4") {
		run("table4", func() error {
			rows, err := eval.RunTable4(o)
			if err != nil {
				return err
			}
			eval.FormatTable4(os.Stdout, rows)
			return nil
		})
	}
	if want("fig7") {
		run("fig7", func() error {
			series, err := eval.RunFigure7(o, nil)
			if err != nil {
				return err
			}
			eval.FormatFigure7(os.Stdout, series)
			return nil
		})
	}
	if want("table5") {
		run("table5", func() error {
			rows, err := eval.RunTable5(o)
			if err != nil {
				return err
			}
			eval.FormatTable5(os.Stdout, rows)
			return nil
		})
	}
	if want("table6") {
		run("table6", func() error {
			rows, err := eval.RunTable6(o)
			if err != nil {
				return err
			}
			eval.FormatTable6(os.Stdout, rows)
			frac, err := eval.RunLlama2BatchCheck(o)
			if err != nil {
				return err
			}
			fmt.Printf("Llama2-chat-70B under batch prompting: %.0f%% of questions unanswered (omitted, as in the paper)\n", 100*frac)
			return nil
		})
	}
	if want("table7") {
		run("table7", func() error {
			rows, err := eval.RunTable7(o)
			if err != nil {
				return err
			}
			eval.FormatTable7(os.Stdout, rows)
			return nil
		})
	}
	if want("ablations") {
		run("ablations", func() error {
			ao := o
			if len(ao.Datasets) > 2 {
				ao.Datasets = []string{"WA", "DA"} // representative pair
			}
			sweeps := []func() ([]eval.AblationResult, error){
				func() ([]eval.AblationResult, error) { return eval.RunAblationCoverThreshold(ao, nil) },
				func() ([]eval.AblationResult, error) { return eval.RunAblationBatchSize(ao, nil) },
				func() ([]eval.AblationResult, error) { return eval.RunAblationDistance(ao) },
				func() ([]eval.AblationResult, error) { return eval.RunAblationParallelism(ao) },
			}
			for _, sweep := range sweeps {
				res, err := sweep()
				if err != nil {
					return err
				}
				eval.FormatAblations(os.Stdout, res)
			}
			return nil
		})
	}
	if want("extended") {
		run("extended", func() error {
			eo := o
			if eo.QuestionCap == 0 {
				eo.QuestionCap = 400
			}
			rows, err := eval.RunExtendedSelection(eo)
			if err != nil {
				return err
			}
			eval.FormatExtendedSelection(os.Stdout, rows)
			return nil
		})
	}
	if want("findings") {
		run("findings", func() error {
			fo := o
			if fo.QuestionCap == 0 {
				fo.QuestionCap = 300 // checks need directions, not scale
			}
			findings, err := eval.CheckFindings(fo)
			if err != nil {
				return err
			}
			eval.FormatFindings(os.Stdout, findings)
			return nil
		})
	}
}
