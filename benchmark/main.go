// Command erbench is the benchmark of BatchER-Go: one program that
// generates its inputs from a seed, runs four named workloads through
// the public facade the way cmd/ermatch does — each in a fresh child
// process of itself — checks every output, and prints nine end-to-end
// metrics per workload by name and unit. A separate traced pass reruns
// a workload with spans and layer probes on and prints the per-layer
// metrics. See README.md for the workloads, the metrics and how they
// interact; BENCHMARK.json at the repository root names them for the
// driver.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh -seed 1                      # all four workloads
//	bash benchmark/run.sh -seed 1 -workload collected  # one workload, plus the result line
//	bash benchmark/run.sh -seed 1 -trace trace.json    # add the traced pass
//	bash benchmark/run.sh -seed 1 -repeat 2            # two sets of runs, compared within the bounds
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"
)

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from; run.sh puts the binary there too.
const buildDir = ".bench_build"

// childEnv marks a process as a child of the benchmark (the smoke test's
// TestMain re-enters main on it).
const childEnv = "ERBENCH_CHILD"

// setUps is how many times an untraced run sets up: setup_s is their
// median, so one slow process start does not move it.
const setUps = 3

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	repeat   int
	rows     int
	child    string
	dir      string
	golden   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("erbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload and end with the JSON result line (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for data generation, matching and the latency schedule")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long each workload's timed part runs (at least one iteration)")
	fs.StringVar(&o.trace, "trace", "", "traced pass: 0 = off, 1 = on (spans under "+buildDir+"/trace), or the file to write spans to")
	fs.IntVar(&o.repeat, "repeat", 0, "run the full set this many times and compare the runs within the bounds of BENCHMARK.json")
	fs.IntVar(&o.rows, "rows", 0, "override every workload's table size (the smoke test uses it; results are not comparable)")
	fs.BoolVar(&o.golden, "update-golden", false, "rewrite benchmark/golden.json from this run (all workloads, default sizes)")
	fs.StringVar(&o.child, "child", "", "internal: run as a child process (setup or measure)")
	fs.StringVar(&o.dir, "dir", "", "internal: the child's set-up directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch {
	case o.child != "":
		err = runChild(ctx, o, stdout)
	case o.repeat > 0:
		err = runRepeat(ctx, o, stdout, stderr)
	case o.workload != "":
		err = runOne(ctx, o, stdout, stderr)
	default:
		err = runAll(ctx, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "erbench:", err)
		return 1
	}
	return 0
}

// sized returns the named workload at the size the options ask for.
func (o options) sized(name string) (workload, error) {
	w, err := findWorkload(name)
	if err == nil && o.rows > 0 {
		w.rows = o.rows
	}
	return w, err
}

// traced reports whether the options ask for the traced pass.
func (o options) traced() bool { return o.trace != "" && o.trace != "0" }

// runChild is the two things a child process does.
func runChild(ctx context.Context, o options, stdout io.Writer) error {
	w, err := o.sized(o.workload)
	if err != nil {
		return err
	}
	switch o.child {
	case "setup":
		return setUp(ctx, w, o.seed, o.dir)
	case "measure":
		budget := time.Duration(o.seconds * float64(time.Second))
		var tr *tracer // stays nil, recording nothing, on an untraced run
		if o.traced() {
			tr = newTracer(fmt.Sprintf("%s-seed%d", w.name, o.seed))
			// The traced pass still needs an untraced baseline for the
			// tracing overhead; give it half the time.
			budget /= 2
		}
		root, endRoot := tr.begin("run", 0)
		_, endSetup := tr.begin("setup", root)
		m, err := newMeasurer(w, o.seed, o.dir)
		endSetup()
		if err != nil {
			return err
		}
		_, endBaseline := tr.begin("untraced_baseline", root)
		m.untraced(ctx, budget)
		endBaseline()
		if tr != nil && len(m.res.Violations) == 0 {
			err := m.traced(ctx, tr, root)
			endRoot()
			if err != nil {
				m.res.Violations = append(m.res.Violations, err.Error())
			}
			m.res.Trace = tr.file()
		}
		return json.NewEncoder(stdout).Encode(m.res)
	}
	return fmt.Errorf("unknown child mode %q", o.child)
}

// spawn runs this binary as a child and returns its standard output.
func spawn(ctx context.Context, stderr io.Writer, args ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	return out.Bytes(), nil
}

// workloadRun is one finished run of one workload: either the untraced
// pass with its end-to-end metrics, or the traced pass with its
// per-layer metrics.
type workloadRun struct {
	w      workload
	traced bool
	res    childResult
	// metrics are keyed by the names of endToEnd or perLayer.
	metrics map[string]float64
	// speed is the untraced pass's host-speed factor.
	speed float64
}

func (r *workloadRun) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// runWorkload sets the workload up (each time in a fresh child), then
// measures it in another fresh child, so recording and set-up never
// inflate the measuring process's memory or warm its caches.
func runWorkload(ctx context.Context, o options, w workload, traced bool, stderr io.Writer) (*workloadRun, error) {
	work := filepath.Join(buildDir, "work", fmt.Sprintf("%s-seed%d-%d", w.name, o.seed, os.Getpid()))
	defer os.RemoveAll(work)
	common := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-rows", fmt.Sprint(w.rows)}
	n := setUps
	if traced {
		n = 1 // set-up time is an end-to-end metric; the traced pass reports none
	}
	var setupS []float64
	dir := filepath.Join(work, "setup")
	for i := 0; i < n; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		cal := calibrateN(3)
		t0 := time.Now()
		if _, err := spawn(ctx, stderr, append(common, "-child", "setup", "-dir", dir)...); err != nil {
			return nil, err
		}
		raw := time.Since(t0).Seconds()
		setupS = append(setupS, raw*speedFactor(append(cal, calibrateN(3)...)))
	}
	args := append(common, "-child", "measure", "-dir", dir, "-seconds", fmt.Sprint(o.seconds))
	if traced {
		args = append(args, "-trace", "1")
	}
	out, err := spawn(ctx, stderr, args...)
	if err != nil {
		return nil, err
	}
	r := &workloadRun{w: w, traced: traced}
	if err := json.Unmarshal(out, &r.res); err != nil {
		return nil, fmt.Errorf("reading measuring child's result: %w", err)
	}
	if traced {
		r.metrics = r.res.Layers
		return r, nil
	}
	if err := checkGolden(o, w, r.res.Outcome); err != nil && len(r.res.Violations) == 0 {
		r.res.Violations = append(r.res.Violations, err.Error())
		r.res.Failed = r.res.Attempted
	}
	res, ref := r.res, r.res.Outcome
	pairs := float64(max(ref.Candidates, 1))
	// CPU-bound times read at the reference host speed (calibrate.go).
	// latency_overlap's wall-clock is the stub's sleeps, which no host
	// speed stretches, so it stays as measured.
	r.speed = speedFactor(res.Calibration)
	wall := median(res.WallS)
	if !w.latency {
		wall *= r.speed
	}
	r.metrics = map[string]float64{
		"setup_s":     median(setupS),
		"wall_s":      wall,
		"cpu_s":       median(res.CPUS) * r.speed,
		"pairs_per_s": 0,
		// The smallest of the iterations' high-water marks: when a GC
		// cycle happens to start only ever adds to the mark, by up to a
		// third on collected, so the minimum is what the run needs and
		// the statistic of it that repeats best.
		"peak_rss_mb":      quantile(res.PeakRSSMB, 0),
		"allocs_per_pair":  float64(res.Mallocs) / (float64(max(len(res.WallS), 1)) * pairs),
		"usd_per_1k_pairs": ref.usd() / pairs * 1000,
		"f1":               ref.F1,
		"resolved_share":   1 - float64(res.Failed)/float64(max(res.Attempted, 1)),
	}
	if wall > 0 {
		r.metrics["pairs_per_s"] = pairs / wall
	}
	return r, nil
}

// report prints a finished run: a header with the workload's shape and
// the wall-clock distribution, then one line per metric.
func (r *workloadRun) report(out io.Writer) {
	ref := r.res.Outcome
	pass := "untraced"
	if r.traced {
		pass = "traced"
	}
	fmt.Fprintf(out, "# %s (%s): %dx%d rows, %d candidates, %d windows, %d billed calls, digest %.12s\n",
		r.w.name, pass, r.w.rows, r.w.rows, ref.Candidates, ref.Windows, ref.BilledCalls, ref.Digest)
	if xs := r.res.WallS; !r.traced && len(xs) > 0 {
		fmt.Fprintf(out, "# host speed factor %.3f (calibration loop %.1f ms, reference %.1f ms)\n",
			r.speed, 1000*median(r.res.Calibration), 1000*referenceCalibration.Seconds())
		fmt.Fprintf(out, "# as measured: cpu_s median %.4f, wall_s over %d iterations: q1 %.4f median %.4f q3 %.4f",
			median(r.res.CPUS), len(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
		// The highest percentile with at least ten samples beyond it.
		if n := len(xs); n > 20 {
			q := 1 - 10/float64(n)
			fmt.Fprintf(out, " p%.0f %.4f", 100*q, quantile(xs, q))
		}
		fmt.Fprintln(out)
	}
	if xs := r.res.PeakRSSMB; !r.traced && len(xs) > 0 {
		fmt.Fprintf(out, "# peak_rss_mb per iteration: min %.1f median %.1f max %.1f\n",
			quantile(xs, 0), median(xs), quantile(xs, 1))
	}
	for _, v := range r.res.Violations {
		fmt.Fprintf(out, "# VIOLATION %s: %s\n", r.w.name, v)
	}
	printMetrics(out, r.w.name, r.defs(), r.metrics)
}

func (r *workloadRun) correct() bool { return len(r.res.Violations) == 0 }

// runOne is the driver's mode: one workload, one pass, and the JSON
// result as the last line of standard output.
func runOne(ctx context.Context, o options, stdout, stderr io.Writer) error {
	w, err := o.sized(o.workload)
	if err != nil {
		return err
	}
	r, err := runWorkload(ctx, o, w, o.traced(), stderr)
	if err != nil {
		return err
	}
	r.report(stdout)
	if r.traced && r.correct() {
		if err := writeTraces(o, []*workloadRun{r}); err != nil {
			return err
		}
	}
	if r.metrics == nil {
		return fmt.Errorf("%s: %v", w.name, r.res.Violations)
	}
	fmt.Fprintln(stdout, resultLine(r.correct(), max(r.res.Attempted, 1), r.res.Failed, r.defs(), r.metrics))
	if !r.correct() {
		return fmt.Errorf("%s failed its correctness checks", w.name)
	}
	return nil
}

// runSet runs all four workloads untraced, checks the equalities that
// hold across them, and — with tracing on — runs the traced passes.
func runSet(ctx context.Context, o options, stdout, stderr io.Writer) ([]*workloadRun, error) {
	var runs []*workloadRun
	byName := map[string]*workloadRun{}
	failed := false
	for _, traced := range []bool{false, true} {
		if traced && !o.traced() {
			break
		}
		for _, def := range workloads {
			w, _ := o.sized(def.name)
			r, err := runWorkload(ctx, o, w, traced, stderr)
			if err != nil {
				return nil, err
			}
			r.report(stdout)
			runs = append(runs, r)
			failed = failed || !r.correct()
			if !traced {
				byName[w.name] = r
			}
		}
	}
	// K=2 must equal K=1, and a merged replay the single-process run:
	// same predictions, same bill.
	base := byName["cpu_windowed"].res.Outcome
	for _, name := range []string{"latency_overlap", "merge_replay"} {
		if err := sameBehaviour(byName[name].res.Outcome, base); err != nil {
			fmt.Fprintf(stdout, "# VIOLATION %s differs from cpu_windowed: %v\n", name, err)
			failed = true
		}
	}
	if failed {
		return runs, errors.New("correctness checks failed")
	}
	if o.traced() {
		if err := writeTraces(o, runs); err != nil {
			return runs, err
		}
	}
	return runs, nil
}

func runAll(ctx context.Context, o options, stdout, stderr io.Writer) error {
	runs, err := runSet(ctx, o, stdout, stderr)
	if err != nil {
		return err
	}
	if o.golden {
		return writeGolden(o, runs)
	}
	return nil
}

// writeTraces writes the traced runs' spans as one JSON array, one
// element per workload run.
func writeTraces(o options, runs []*workloadRun) error {
	var traces []*traceFile
	for _, r := range runs {
		if r.res.Trace != nil {
			traces = append(traces, r.res.Trace)
		}
	}
	path := o.trace
	if path == "1" {
		dir := filepath.Join(buildDir, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path = filepath.Join(dir, fmt.Sprintf("seed%d.json", o.seed))
		if o.workload != "" {
			path = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		}
	}
	data, err := json.MarshalIndent(traces, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// benchmarkFile is the part of BENCHMARK.json the repeat mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat runs the full set o.repeat times and compares every later
// run with the first: per metric and workload the values, how much
// worse the later one is as a share of the first, and the bound. It
// fails if any pair disagrees by more than its bound in either
// direction — two runs of the same code have no better or worse side.
func runRepeat(ctx context.Context, o options, stdout, stderr io.Writer) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("repeat mode reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	o.trace = ""
	var sets [][]*workloadRun
	for i := 0; i < o.repeat; i++ {
		fmt.Fprintf(stdout, "# set %d of %d\n", i+1, o.repeat)
		runs, err := runSet(ctx, o, stdout, stderr)
		if err != nil {
			return err
		}
		sets = append(sets, runs)
	}
	fmt.Fprintf(stdout, "# repeatability: first set vs each later set\n")
	fmt.Fprintf(stdout, "%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "later", "diff", "bound")
	exceeded := 0
	for s := 1; s < len(sets); s++ {
		for wi, first := range sets[0] {
			later := sets[s][wi]
			if first.res.Outcome.Digest != later.res.Outcome.Digest {
				fmt.Fprintf(stdout, "%-16s digest differs between sets\n", first.w.name)
				exceeded++
			}
			for _, m := range bf.EndToEnd {
				a, b := first.metrics[m.Name], later.metrics[m.Name]
				diff := 0.0
				if a != 0 {
					diff = math.Abs(b-a) / math.Abs(a)
				}
				mark := ""
				if diff > m.Bound {
					mark = "  EXCEEDED"
					exceeded++
				}
				fmt.Fprintf(stdout, "%-16s %-18s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
					first.w.name, m.Name, a, b, 100*diff, 100*m.Bound, mark)
			}
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric pairs disagree by more than their bound", exceeded)
	}
	return nil
}

// golden pins, for one seed at the default sizes, what every workload
// must produce: a later "same behaviour" change that moves a single
// prediction, call or cent fails the benchmark. Other seeds rely on the
// reference run and the cross-workload equalities.
type golden struct {
	Seed int64 `json:"seed"`
	// Arch is the GOARCH the values were recorded on: floating-point
	// contraction differs between architectures, so the pin only binds
	// where it was taken.
	Arch      string             `json:"arch"`
	Workloads map[string]outcome `json:"workloads"`
}

//go:embed golden.json
var goldenJSON []byte

func checkGolden(o options, w workload, got outcome) error {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := g.Workloads[w.name]
	if !ok || o.golden || o.rows > 0 || o.seed != g.Seed || runtime.GOARCH != g.Arch {
		return nil
	}
	if err := sameBehaviour(got, want); err != nil {
		return fmt.Errorf("differs from golden.json: %w", err)
	}
	return nil
}

func writeGolden(o options, runs []*workloadRun) error {
	if o.rows > 0 {
		return errors.New("-update-golden needs the default table sizes")
	}
	g := golden{Seed: o.seed, Arch: runtime.GOARCH, Workloads: map[string]outcome{}}
	for _, r := range runs {
		if !r.traced {
			g.Workloads[r.w.name] = r.res.Outcome
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "golden.json"), append(data, '\n'), 0o644)
}
