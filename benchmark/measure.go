package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"batcher/batcher"
)

// childResult is what a measuring child prints for its parent.
type childResult struct {
	Iterations int `json:"iterations"`
	// Attempted and Failed count candidate pairs: every pair of an
	// iteration that errored or failed a check, plus pairs left Unknown.
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// Outcome is the (identical) outcome of the iterations.
	Outcome outcome `json:"outcome"`
	// WallS and CPUS are per-iteration seconds.
	WallS []float64 `json:"wall_s"`
	CPUS  []float64 `json:"cpu_s"`
	// Mallocs sums the heap allocations inside the timed paths.
	Mallocs uint64 `json:"mallocs"`
	// PeakRSSMB holds each iteration's resident-set high-water mark.
	PeakRSSMB []float64 `json:"peak_rss_mb"`
	// Calibration holds the host-speed samples taken between iterations.
	Calibration []float64 `json:"calibration"`
	// Layers and Trace hold the per-layer metrics and the spans of a
	// traced pass.
	Layers map[string]float64 `json:"layers,omitempty"`
	Trace  *traceFile         `json:"trace,omitempty"`
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set since the
// last resetPeakRSS: VmHWM where /proc has it, else ru_maxrss (Linux
// reports both in KiB).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS hands freed memory back to the OS and restarts the
// high-water mark, so every iteration's peak is its own — what a fresh
// ermatch process would reach — instead of the largest so far. Where
// the kernel cannot reset the mark the peaks are process-wide and only
// the first iteration's is its own.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// measurer runs iterations of one workload over one set-up directory.
type measurer struct {
	w    workload
	seed int64
	dir  string
	rec  recorded
	gold map[string]bool
	// stub answers from the recording; client is the stack on top of it
	// (the latency schedule, when the workload has one).
	stub   *recordedClient
	client batcher.Client
	res    childResult
}

func newMeasurer(w workload, seed int64, dir string) (*measurer, error) {
	m := &measurer{w: w, seed: seed, dir: dir}
	data, err := os.ReadFile(filepath.Join(dir, fileRecorded))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &m.rec); err != nil {
		return nil, fmt.Errorf("reading recording: %w", err)
	}
	if m.gold, err = readGold(dir); err != nil {
		return nil, err
	}
	m.stub = &recordedClient{responses: m.rec.Responses, miss: batcher.NewSimulatedClient(nil, seed)}
	m.client = m.stub
	if w.latency {
		m.client = &scheduledClient{inner: m.stub, seed: seed}
	}
	return m, nil
}

// iterate runs one iteration in a fresh scratch directory, checks it
// against the reference, and folds it into the result. Only the
// end-to-end path is inside the clock, the CPU and the malloc deltas.
func (m *measurer) iterate(ctx context.Context, e *iterEnv) (wall time.Duration) {
	ref := m.rec.Reference
	m.res.Iterations++
	m.res.Attempted += ref.Candidates
	fail := func(format string, args ...any) {
		m.res.Failed += ref.Candidates
		m.res.Violations = append(m.res.Violations,
			fmt.Sprintf("iteration %d: ", m.res.Iterations)+fmt.Sprintf(format, args...))
	}
	e.scratch = filepath.Join(m.dir, "iter")
	if err := os.RemoveAll(e.scratch); err != nil {
		fail("%v", err)
		return wall
	}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		fail("%v", err)
		return wall
	}
	calls0, misses0 := m.stub.calls.Load(), m.stub.misses.Load()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuTime(), time.Now()
	rep, unknown, err := runTimed(ctx, e)
	wall = time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	rss := peakRSSMB()
	if err != nil {
		fail("%v", err)
		return wall
	}
	out, err := score(e, rep, unknown)
	if err != nil {
		fail("%v", err)
		return wall
	}
	out.ClientCalls = int(m.stub.calls.Load() - calls0)
	wantCalls := ref.ClientCalls
	if m.w.replay {
		wantCalls = 0
	}
	switch misses := m.stub.misses.Load() - misses0; {
	case misses != 0:
		fail("%d requests missed the recording (prompt drift)", misses)
		return wall
	case out.ClientCalls != wantCalls:
		fail("%d LLM calls, want %d", out.ClientCalls, wantCalls)
		return wall
	case m.w.replay && out.Replayed != out.Candidates:
		fail("replayed %d of %d candidates", out.Replayed, out.Candidates)
		return wall
	}
	if err := sameBehaviour(*out, ref); err != nil {
		fail("%v", err)
		return wall
	}
	m.res.Failed += out.Unknown
	m.res.Outcome = *out
	if e.tr == nil {
		m.res.WallS = append(m.res.WallS, wall.Seconds())
		m.res.CPUS = append(m.res.CPUS, cpu.Seconds())
		m.res.Mallocs += ms1.Mallocs - ms0.Mallocs
		m.res.PeakRSSMB = append(m.res.PeakRSSMB, rss)
	}
	return wall
}

// untraced runs whole iterations, as many as come closest to budget
// (at least one).
func (m *measurer) untraced(ctx context.Context, budget time.Duration) {
	start := time.Now()
	var calibrated time.Time
	var spent time.Duration // calibrating is not measuring
	for n := 1; ; n++ {
		if time.Since(calibrated) >= calibrationGap {
			t0 := time.Now()
			m.res.Calibration = append(m.res.Calibration, calibrateN(5)...)
			calibrated = time.Now()
			spent += calibrated.Sub(t0)
		}
		m.iterate(ctx, &iterEnv{w: m.w, seed: m.seed, dir: m.dir, client: m.client, gold: m.gold})
		elapsed := time.Since(start) - spent
		if elapsed+elapsed/time.Duration(2*n) >= budget || len(m.res.Violations) > 0 {
			break
		}
	}
	m.res.Calibration = append(m.res.Calibration, calibrateN(5)...)
}

// traced reruns the workload once with span recording and in-situ
// observers on, under the root span, then runs the standalone layer
// probes, and fills res.Layers. The untraced pass must have run first:
// the tracing overhead is measured against its median.
func (m *measurer) traced(ctx context.Context, tr *tracer, root int) error {
	obsClient := &observedClient{inner: m.client}
	obs := &observations{}
	failedBefore := len(m.res.Violations)
	e := &iterEnv{w: m.w, seed: m.seed, dir: m.dir, client: obsClient, gold: m.gold, tr: tr, parent: root, obs: obs}
	tracedWall := m.iterate(ctx, e)
	if len(m.res.Violations) > failedBefore {
		return fmt.Errorf("traced iteration failed")
	}
	prev := obs.runStart
	for i, c := range obs.commits {
		tr.add(fmt.Sprintf("window_commit[%d]", i), obs.runSpan, prev, c)
		prev = c
	}
	for j, k := range obsClient.calls {
		tr.add(fmt.Sprintf("llm_call[%d]", j), obs.runSpan, k.start, k.end)
	}
	layers := inSitu(m, obs, obsClient)
	layers["trace.overhead_share"] = 0
	if base := median(m.res.WallS); base > 0 {
		layers["trace.overhead_share"] = (tracedWall.Seconds() - base) / base
	}
	probeSpan, endProbes := tr.begin("probe", root)
	err := runProbes(ctx, &probeEnv{m: m, tr: tr, parent: probeSpan, obs: obs}, layers)
	endProbes()
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	m.res.Layers = layers
	return nil
}

// inSitu derives the llm.*, cost.*, pipeline.* and shard.* metrics the
// traced iteration observed from inside the run.
func inSitu(m *measurer, obs *observations, oc *observedClient) map[string]float64 {
	out := m.res.Outcome
	ms := millis
	l := map[string]float64{
		"llm.calls":                   float64(len(oc.calls)),
		"llm.input_tokens":            float64(out.InputTokens),
		"llm.output_tokens":           float64(out.OutputTokens),
		"llm.stub_misses":             float64(m.stub.misses.Load()),
		"llm.wait_ms":                 ms(oc.busy()),
		"cost.api_usd":                out.APIUSD,
		"cost.label_usd":              out.LabelUSD,
		"pipeline.windows":            float64(out.Windows),
		"pipeline.peak_buffered":      float64(out.PeakBuffered),
		"pipeline.first_row_ms":       ms(obs.firstRow.Sub(obs.runStart)),
		"shard.merge_ms":              ms(obs.merge),
		"shard.skew":                  0,
		"llm.inflight_max":            0,
		"llm.idle_ms":                 0,
		"pipeline.replay_ms":          0,
		"pipeline.overlap_efficiency": 0,
	}
	if m.w.replay {
		// A replay bills what the shards billed but asks the LLM nothing.
		l["llm.input_tokens"], l["llm.output_tokens"] = 0, 0
		l["pipeline.replay_ms"] = ms(obs.pipeline)
		total, largest := 0, 0
		for _, n := range m.rec.ShardCandidates {
			total += n
			largest = max(largest, n)
		}
		if total > 0 {
			l["shard.skew"] = float64(largest) * float64(len(m.rec.ShardCandidates)) / float64(total)
		}
	}
	// Window commit gaps: time between consecutive window completions.
	var gaps []float64
	prev := obs.runStart
	for _, c := range obs.commits {
		gaps = append(gaps, ms(c.Sub(prev)))
		prev = c
	}
	l["pipeline.window_commit_p50_ms"] = quantile(gaps, 0.5)
	l["pipeline.window_commit_p90_ms"] = quantile(gaps, 0.9)
	// In-flight high-water mark and idle time by a sweep over the call
	// intervals: idle is the part of [first start, last end] with no call
	// in flight — the pipeline bubble.
	if n := len(oc.calls); n > 0 {
		type edge struct {
			at    time.Time
			delta int
		}
		edges := make([]edge, 0, 2*n)
		for _, k := range oc.calls {
			edges = append(edges, edge{k.start, 1}, edge{k.end, -1})
		}
		sort.Slice(edges, func(i, j int) bool {
			if !edges[i].at.Equal(edges[j].at) {
				return edges[i].at.Before(edges[j].at)
			}
			return edges[i].delta < edges[j].delta
		})
		inflight, peak := 0, 0
		var idle time.Duration
		for i, ed := range edges {
			if inflight == 0 && i > 0 {
				idle += ed.at.Sub(edges[i-1].at)
			}
			inflight += ed.delta
			peak = max(peak, inflight)
		}
		l["llm.inflight_max"] = float64(peak)
		l["llm.idle_ms"] = ms(idle)
		// Against the two-lane ideal: all LLM wait spread over two lanes
		// and nothing else on the clock.
		if obs.pipeline > 0 {
			l["pipeline.overlap_efficiency"] = oc.busy().Seconds() / 2 / obs.pipeline.Seconds()
		}
	}
	return l
}
