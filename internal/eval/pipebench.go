package eval

import (
	"context"
	"fmt"
	"io"
	"time"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/llm"
	"batcher/internal/pipeline"
)

// PipelineBenchOptions sizes the pipelined-execution latency sweep
// behind BENCH_pipeline.json: a synthetic Rows x Rows run matched under
// a stub LLM client with fixed per-call latency, once per (latency,
// InFlightWindows) cell.
type PipelineBenchOptions struct {
	// Rows is the record count per table (default 8000).
	Rows int
	// Window is the pipeline StreamWindow (default 512).
	Window int
	// Parallelism is the per-window batch-prompt concurrency
	// (default 8).
	Parallelism int
	// LatenciesMS are the simulated per-call LLM latencies in
	// milliseconds (default 50, 200, 800).
	LatenciesMS []int
	// InFlight are the InFlightWindows values to sweep (default 1, 2,
	// 4, 8; a leading 1 anchors each latency's speedup baseline).
	InFlight []int
	// Seed seeds data generation and matching (default 1).
	Seed int64
}

func (o PipelineBenchOptions) withDefaults() PipelineBenchOptions {
	if o.Rows <= 0 {
		o.Rows = 8000
	}
	if o.Window <= 0 {
		o.Window = 512
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 8
	}
	if len(o.LatenciesMS) == 0 {
		o.LatenciesMS = []int{50, 200, 800}
	}
	if len(o.InFlight) == 0 {
		o.InFlight = []int{1, 2, 4, 8}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// PipelineBenchCell is one measured (latency, InFlightWindows) run.
type PipelineBenchCell struct {
	// LatencyMS is the simulated per-call LLM latency.
	LatencyMS int
	// InFlight is the InFlightWindows setting.
	InFlight int
	// Wall is the end-to-end Run duration.
	Wall time.Duration
	// Candidates, Windows, and Calls describe the workload the cell
	// processed (identical across cells by the determinism contract).
	Candidates, Windows, Calls int
	// Speedup is this cell's wall-clock gain over the InFlightWindows=1
	// cell at the same latency (1 for the baseline itself, 0 when the
	// sweep omitted the baseline).
	Speedup float64
}

// PipelineBenchSpec is the sweep's synthetic workload: the resume
// stress-test schema scaled to rows records per side, with the title
// vocabulary widened so token-blocking noise stays proportional and the
// candidate count is O(rows).
func PipelineBenchSpec(rows int) datagen.CustomSpec {
	vocab := make([]string, 600)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%03d", i)
	}
	maker := make([]string, 40)
	for i := range maker {
		maker[i] = fmt.Sprintf("maker%02d", i)
	}
	return datagen.CustomSpec{
		Name:   "pipebench",
		Domain: "stress",
		Attrs: []datagen.AttrSpec{
			{Name: "title", Vocab: vocab, Tokens: 4},
			{Name: "maker", Vocab: maker, Tokens: 1, KeepOnHardNeg: true},
			{Name: "year", Numeric: true, Min: 1990, Max: 2024},
		},
		NumPairs:   rows,
		NumMatches: rows / 4,
	}
}

// RunPipelineBench measures pipeline.Run wall-clock across the
// (latency, InFlightWindows) grid. Every cell matches the same
// candidates with the same seed — the executors are output-identical,
// so only wall-clock varies. Progress lines go to progress when
// non-nil.
func RunPipelineBench(o PipelineBenchOptions, progress io.Writer) ([]PipelineBenchCell, error) {
	o = o.withDefaults()
	d, err := datagen.GenerateCustom(PipelineBenchSpec(o.Rows), o.Seed)
	if err != nil {
		return nil, err
	}
	cells := make([]PipelineBenchCell, 0, len(o.LatenciesMS)*len(o.InFlight))
	for _, ms := range o.LatenciesMS {
		var serial time.Duration
		for _, k := range o.InFlight {
			client := llm.NewLatency(llm.NewSimulated(nil, o.Seed), time.Duration(ms)*time.Millisecond)
			cfg := pipeline.Config{
				Blocker:         &blocking.TokenBlocker{Attr: "title", MinShared: 2},
				Matcher:         core.Config{Seed: o.Seed, Parallelism: o.Parallelism},
				StreamWindow:    o.Window,
				InFlightWindows: k,
			}
			start := time.Now()
			rep, err := pipeline.Run(context.Background(), cfg, client, d.TableA, d.TableB)
			if err != nil {
				return nil, fmt.Errorf("pipebench: latency %dms inflight %d: %w", ms, k, err)
			}
			cell := PipelineBenchCell{
				LatencyMS:  ms,
				InFlight:   k,
				Wall:       time.Since(start),
				Candidates: rep.Candidates,
				Windows:    rep.Windows,
				Calls:      rep.Result.Ledger.Calls(),
			}
			if k == 1 {
				serial = cell.Wall
			}
			if serial > 0 {
				cell.Speedup = float64(serial) / float64(cell.Wall)
			}
			cells = append(cells, cell)
			if progress != nil {
				fmt.Fprintf(progress, "pipeline bench: latency %3dms inflight %d: %v (%d candidates, %d windows, %d calls)\n",
					ms, k, cell.Wall.Round(time.Millisecond), cell.Candidates, cell.Windows, cell.Calls)
			}
		}
	}
	return cells, nil
}

// FormatPipelineBench renders the sweep as a text table.
func FormatPipelineBench(w io.Writer, cells []PipelineBenchCell) {
	fprintf(w, "Pipelined execution: wall-clock vs InFlightWindows\n")
	fprintf(w, "%-12s %-10s %-12s %-8s %-11s %-8s %-7s\n",
		"latency", "in-flight", "wall", "speedup", "candidates", "windows", "calls")
	for _, c := range cells {
		fprintf(w, "%-12s %-10d %-12v %-8.2f %-11d %-8d %-7d\n",
			fmt.Sprintf("%dms", c.LatencyMS), c.InFlight, c.Wall.Round(time.Millisecond),
			c.Speedup, c.Candidates, c.Windows, c.Calls)
	}
}

// PipelineBenchFile assembles the sweep into a BENCH_pipeline.json
// document. Each cell's record carries ns_per_op (one op = one full
// Run) plus the speedup and workload shape.
func PipelineBenchFile(o PipelineBenchOptions, cells []PipelineBenchCell) BenchFile {
	o = o.withDefaults()
	f := BenchFile{
		BenchMeta: NewBenchMeta(fmt.Sprintf(
			"Pipelined window execution: pipeline.Run wall-clock on a synthetic %dx%d run (StreamWindow %d, batch Parallelism %d, seed %d) under a stub LLM client with fixed per-call latency, swept over InFlightWindows. speedup_vs_serial compares each cell to InFlightWindows=1 at the same latency; outputs are byte-identical across cells by the ordered-commit determinism contract. Regenerate with: go run ./cmd/erbench -exp pipeline -json > BENCH_pipeline.json",
			o.Rows, o.Rows, o.Window, o.Parallelism, o.Seed)),
		Results: make(map[string]any, len(cells)),
	}
	for _, c := range cells {
		key := fmt.Sprintf("PipelineRun/latency_%dms/inflight_%d", c.LatencyMS, c.InFlight)
		f.Results[key] = map[string]any{
			"ns_per_op":           c.Wall.Nanoseconds(),
			"wall_ms":             float64(c.Wall.Nanoseconds()) / 1e6,
			"speedup_vs_serial":   c.Speedup,
			"candidates":          c.Candidates,
			"windows":             c.Windows,
			"llm_calls":           c.Calls,
			"latency_ms_per_call": c.LatencyMS,
			"in_flight_windows":   c.InFlight,
		}
	}
	return f
}
