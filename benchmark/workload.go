package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"batcher/batcher"
)

// workload is one named set of inputs and pipeline settings. The four
// workloads are fixed: later issues claim gains against their names.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	why string
	// rows is the record count per table.
	rows int
	// window is PipelineConfig.StreamWindow (0 = collected mode).
	window int
	// inFlight is PipelineConfig.InFlightWindows.
	inFlight int
	// parallelism is the matcher's batch-prompt concurrency. The load is
	// sized for two cores: inFlight x parallelism never exceeds 2.
	parallelism int
	// durable journals the run and puts a disk cache in front of the
	// LLM, as a paid run would.
	durable bool
	// latency makes the stub sleep its deterministic schedule.
	latency bool
	// replay times shard merge + journal replay instead of matching.
	replay bool
}

// Blocking settings of the facade path: what `ermatch -attr title` runs.
const (
	blockAttr   = "title"
	minShared   = 2
	windowPairs = 512
	shardCount  = 4
)

var workloads = []workload{
	{
		name: "cpu_windowed",
		why:  "zero-latency stub, K=1, 512-pair windows: nothing overlaps, so wall-clock is the program's CPU by stage and every CPU-layer optimisation must show here",
		rows: 8000, window: windowPairs, inFlight: 1, parallelism: 2,
	},
	{
		name: "latency_overlap",
		why:  "journaled, disk-cached, K=2 under a 7.5/20/100 ms latency schedule: LLM wait dominates, so CPU work predicts no change in wall_s and only overlap, commit stalls and durability writes move it",
		rows: 8000, window: windowPairs, inFlight: 2, parallelism: 1,
		durable: true, latency: true,
	},
	{
		name: "collected",
		why:  "one unbounded window (the ermatch default): n^2 clustering, covering and calibration dominate and everything is buffered, so peak_rss_mb lives here and window-tuned changes show their cost",
		rows: 6000, window: 0, inFlight: 1, parallelism: 2,
	},
	{
		name: "merge_replay",
		why:  "merge four shard journals and replay the result with zero LLM calls: runstore, shard and pipeline replay do all the work and the matcher none, so matcher changes predict no change",
		rows: 8000, window: windowPairs, inFlight: 1, parallelism: 2,
		replay: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// benchSpec is the synthetic schema every workload matches: a 600-word
// title vocabulary so token-blocking noise stays proportional to the
// table size, 40 makers, a numeric year, a quarter of the rows matching.
// It is declared here, not imported from internal/eval, so edits there
// cannot move the workloads.
func benchSpec(rows int) batcher.CustomBenchmark {
	vocab := make([]string, 600)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%03d", i)
	}
	maker := make([]string, 40)
	for i := range maker {
		maker[i] = fmt.Sprintf("maker%02d", i)
	}
	return batcher.CustomBenchmark{
		Name:   "pipebench",
		Domain: "stress",
		Attrs: []batcher.BenchmarkAttr{
			{Name: "title", Vocab: vocab, Tokens: 4},
			{Name: "maker", Vocab: maker, Tokens: 1, KeepOnHardNeg: true},
			{Name: "year", Numeric: true, Min: 1990, Max: 2024},
		},
		NumPairs:   rows,
		NumMatches: rows / 4,
	}
}

// File names inside a set-up directory.
const (
	fileTableA   = "tableA.csv"
	fileTableB   = "tableB.csv"
	fileGold     = "gold.csv"
	fileRecorded = "recorded.json"
	dirShards    = "shards"
)

// recorded is what set-up hands the measuring process besides the
// tables: the LLM's answers keyed by request, and the outcome of the
// recording run, which is the reference every measured iteration must
// reproduce.
type recorded struct {
	Responses map[string]batcher.Response `json:"responses"`
	Reference outcome                     `json:"reference"`
	// ShardCandidates holds each shard run's candidate count
	// (merge_replay only).
	ShardCandidates []int `json:"shard_candidates,omitempty"`
}

// outcome is everything about one end-to-end run that must not change
// between iterations, executors, or a run and its replay.
type outcome struct {
	Candidates int `json:"candidates"`
	// Unknown counts candidates left without a verdict.
	Unknown int `json:"unknown"`
	// Digest is the sha256 of the output CSV: ordered id_a,id_b,label rows.
	Digest string `json:"digest"`
	// BilledCalls, the token counts and the dollars come from the ledger.
	BilledCalls  int     `json:"billed_calls"`
	InputTokens  int     `json:"input_tokens"`
	OutputTokens int     `json:"output_tokens"`
	APIUSD       float64 `json:"api_usd"`
	LabelUSD     float64 `json:"label_usd"`
	Labeled      int     `json:"labeled"`
	// F1 is in percent, against the dataset's gold matches (a gold match
	// the blocker missed counts as a false negative).
	F1 float64 `json:"f1"`
	// Windows and PeakBuffered describe the run's shape.
	Windows      int `json:"windows"`
	PeakBuffered int `json:"peak_buffered"`
	// ClientCalls is how many requests reached the LLM client. It is
	// not part of the behaviour comparison: a replay makes none.
	ClientCalls int `json:"client_calls"`
	Replayed    int `json:"replayed"`
}

func (o outcome) usd() float64 { return o.APIUSD + o.LabelUSD }

// sameBehaviour reports how got differs from want in predictions or
// bill. Dollars are compared to a millionth: executors fold the same
// per-batch deltas, but a replay restores them from JSON.
func sameBehaviour(got, want outcome) error {
	switch {
	case got.Digest != want.Digest:
		return fmt.Errorf("predictions digest %s, want %s", got.Digest, want.Digest)
	case got.Candidates != want.Candidates:
		return fmt.Errorf("%d candidates, want %d", got.Candidates, want.Candidates)
	case got.BilledCalls != want.BilledCalls:
		return fmt.Errorf("%d billed calls, want %d", got.BilledCalls, want.BilledCalls)
	case got.Labeled != want.Labeled:
		return fmt.Errorf("%d labeled pairs, want %d", got.Labeled, want.Labeled)
	case math.Abs(got.usd()-want.usd()) > 1e-6:
		return fmt.Errorf("bill $%.6f, want $%.6f", got.usd(), want.usd())
	}
	return nil
}

// generate writes the workload's two tables and gold matches into dir.
func generate(w workload, seed int64, dir string) error {
	d, err := batcher.GenerateBenchmark(benchSpec(w.rows), seed)
	if err != nil {
		return fmt.Errorf("generating tables: %w", err)
	}
	if err := batcher.WriteCSVTable(filepath.Join(dir, fileTableA), d.TableA); err != nil {
		return err
	}
	if err := batcher.WriteCSVTable(filepath.Join(dir, fileTableB), d.TableB); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fileGold))
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	for _, p := range d.Pairs {
		if p.Truth != batcher.Match {
			continue
		}
		if err := cw.Write([]string{p.A.ID, p.B.ID}); err != nil {
			f.Close()
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readGold loads the gold match keys written by generate.
func readGold(dir string) (map[string]bool, error) {
	f, err := os.Open(filepath.Join(dir, fileGold))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("reading gold: %w", err)
	}
	gold := make(map[string]bool, len(rows))
	for _, r := range rows {
		gold[r[0]+"|"+r[1]] = true
	}
	return gold, nil
}

// setUp is the set-up child: generate the tables, record the LLM's
// answers by running the workload's matcher configuration once against
// the simulator, and — for merge_replay — run the four shards whose
// journals the timed iterations merge.
func setUp(ctx context.Context, w workload, seed int64, dir string) error {
	if err := generate(w, seed, dir); err != nil {
		return err
	}
	gold, err := readGold(dir)
	if err != nil {
		return err
	}
	tableA, tableB, err := readTables(dir)
	if err != nil {
		return err
	}
	// The oracle covers every blocked candidate, so the simulator never
	// falls back to its structural prior: gold pairs match, every other
	// candidate does not (datagen rejects duplicate base entities, so a
	// non-gold pair is never an accidental match).
	labeled := batcher.BlockTables(tableA, tableB, blockAttr, minShared)
	for i := range labeled {
		labeled[i].Truth = batcher.NonMatch
		if gold[labeled[i].Key()] {
			labeled[i].Truth = batcher.Match
		}
	}
	rec := &recorder{inner: batcher.NewSimulatedClient(labeled, seed), responses: map[string]batcher.Response{}}
	// The recording run is the plain K=1 run of the workload's window
	// size: the pipelined and the merged-replay workloads must reproduce
	// it, which is the cross-workload equality in one process.
	ref := w
	ref.inFlight, ref.durable, ref.latency, ref.replay = 1, false, false, false
	scratch := filepath.Join(dir, "record")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	out, err := runIteration(ctx, &iterEnv{w: ref, seed: seed, dir: dir, scratch: scratch, client: rec, gold: gold})
	if err != nil {
		return fmt.Errorf("recording run: %w", err)
	}
	out.ClientCalls = len(rec.responses)
	saved := recorded{Responses: rec.responses, Reference: *out}
	if w.replay {
		stub := &recordedClient{responses: rec.responses, miss: batcher.NewSimulatedClient(nil, seed)}
		for i := 0; i < shardCount; i++ {
			n, err := runShard(ctx, w, seed, dir, i, stub)
			if err != nil {
				return fmt.Errorf("shard %d/%d: %w", i, shardCount, err)
			}
			saved.ShardCandidates = append(saved.ShardCandidates, n)
		}
		if m := stub.misses.Load(); m != 0 {
			return fmt.Errorf("shard runs missed the recording %d times", m)
		}
	}
	data, err := json.Marshal(saved)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fileRecorded), data, 0o644)
}

// matcherOptions is the matcher configuration of every run of w.
func matcherOptions(w workload, seed int64) []batcher.Option {
	return []batcher.Option{batcher.WithSeed(seed), batcher.WithParallelism(w.parallelism)}
}

// runShard journals shard i of the workload's candidate stream under
// dir/shards and returns the shard's candidate count.
func runShard(ctx context.Context, w workload, seed int64, dir string, i int, client batcher.Client) (int, error) {
	tableA, tableB, err := readTables(dir)
	if err != nil {
		return 0, err
	}
	j, err := batcher.OpenRunJournal(ctx, filepath.Join(dir, dirShards), fmt.Sprintf("shard-%d", i), false)
	if err != nil {
		return 0, err
	}
	rep, err := batcher.RunPipeline(ctx, batcher.PipelineConfig{
		BlockAttr:       blockAttr,
		MinSharedTokens: minShared,
		StreamWindow:    w.window,
		Matcher:         matcherOptions(w, seed),
		Journal:         j,
		Shard:           batcher.ShardSpec{Index: i, Count: shardCount},
	}, client, tableA, tableB)
	if err != nil {
		j.Close()
		return 0, err
	}
	return rep.Candidates, j.Close()
}

func readTables(dir string) (tableA, tableB []batcher.Record, err error) {
	if tableA, err = batcher.ReadCSVTable(filepath.Join(dir, fileTableA)); err != nil {
		return nil, nil, err
	}
	if tableB, err = batcher.ReadCSVTable(filepath.Join(dir, fileTableB)); err != nil {
		return nil, nil, err
	}
	return tableA, tableB, nil
}

// iterEnv is what one end-to-end iteration runs on.
type iterEnv struct {
	w    workload
	seed int64
	// dir holds the generated inputs; scratch receives what the
	// iteration writes (output CSV, journal, cache, merged journal) and
	// is emptied by the caller between iterations.
	dir, scratch string
	client       batcher.Client
	gold         map[string]bool
	// tr is nil on untraced iterations; parent is the span the
	// iteration's spans hang under.
	tr     *tracer
	parent int
	// obs, when non-nil, receives the in-situ observations of a traced
	// iteration.
	obs *observations
}

// observations are the timings a traced iteration takes from the
// pipeline's own callbacks.
type observations struct {
	// firstRow is when OnPair first fired.
	firstRow time.Time
	// commits are the Progress callback times that completed a window.
	commits []time.Time
	// pipeline, merge and open are span durations; runStart and runSpan
	// locate the RunPipeline span its window and call spans hang under.
	pipeline, merge, open time.Duration
	runStart              time.Time
	runSpan               int
}

const fileOut = "out.csv"

// runIteration is the timed end-to-end path — what an ermatch run does,
// through the facade calls cmd/ermatch makes: read the two CSV tables,
// (merge_replay: merge the shard journals and open the result for
// resume,) RunPipeline with the facade's defaults, and stream every
// candidate's verdict into a CSV through OnPair. Scoring the output
// happens after the clock stops, in score.
func runIteration(ctx context.Context, e *iterEnv) (*outcome, error) {
	rep, unknown, err := runTimed(ctx, e)
	if err != nil {
		return nil, err
	}
	return score(e, rep, unknown)
}

// runTimed is the part of an iteration the clock covers.
func runTimed(ctx context.Context, e *iterEnv) (rep *batcher.PipelineReport, unknown int, retErr error) {
	w := e.w
	_, endRead := e.tr.begin("csv_read", e.parent)
	tableA, tableB, err := readTables(e.dir)
	endRead()
	if err != nil {
		return nil, 0, err
	}
	client := e.client
	cfg := batcher.PipelineConfig{
		BlockAttr:       blockAttr,
		MinSharedTokens: minShared,
		StreamWindow:    w.window,
		InFlightWindows: w.inFlight,
		Matcher:         matcherOptions(w, e.seed),
	}
	switch {
	case w.replay:
		shardDirs, err := batcher.DiscoverShardRuns(filepath.Join(e.dir, dirShards))
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		_, endMerge := e.tr.begin("merge", e.parent)
		_, err = batcher.MergeShardRuns(ctx, shardDirs, filepath.Join(e.scratch, "merged"))
		endMerge()
		if err != nil {
			return nil, 0, fmt.Errorf("merging shard journals: %w", err)
		}
		t1 := time.Now()
		_, endOpen := e.tr.begin("journal_open", e.parent)
		j, err := batcher.OpenRunJournal(ctx, e.scratch, "merged", true)
		endOpen()
		if err != nil {
			return nil, 0, fmt.Errorf("opening merged journal: %w", err)
		}
		if e.obs != nil {
			e.obs.merge, e.obs.open = t1.Sub(t0), time.Since(t1)
		}
		defer closeInto(&retErr, j)
		cfg.Journal = j
	case w.durable:
		j, err := batcher.OpenRunJournal(ctx, e.scratch, "run", false)
		if err != nil {
			return nil, 0, err
		}
		defer closeInto(&retErr, j)
		cache, err := batcher.NewDiskCachedClient(ctx, client, filepath.Join(e.scratch, "cache"), 0)
		if err != nil {
			return nil, 0, err
		}
		defer closeInto(&retErr, cache)
		cfg.Journal, client = j, cache
	}

	f, err := os.Create(filepath.Join(e.scratch, fileOut))
	if err != nil {
		return nil, 0, err
	}
	defer closeInto(&retErr, f)
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"id_a", "id_b", "match"}); err != nil {
		return nil, 0, err
	}
	var writeErr error
	cfg.OnPair = func(p batcher.Pair, label batcher.Label) {
		val := "0"
		switch label {
		case batcher.Match:
			val = "1"
		case batcher.Unknown:
			val = "-1"
			unknown++
		}
		if err := cw.Write([]string{p.A.ID, p.B.ID, val}); err != nil && writeErr == nil {
			writeErr = err
		}
		if e.obs != nil && e.obs.firstRow.IsZero() {
			e.obs.firstRow = time.Now()
		}
	}
	name := "pipeline_run"
	if w.replay {
		name = "replay"
	}
	if e.obs != nil {
		windows := 0
		cfg.Progress = func(pr batcher.PipelineProgress) {
			if pr.Windows > windows {
				windows = pr.Windows
				e.obs.commits = append(e.obs.commits, time.Now())
			}
		}
	}
	t0 := time.Now()
	runSpan, endRun := e.tr.begin(name, e.parent)
	rep, err = batcher.RunPipeline(ctx, cfg, client, tableA, tableB)
	endRun()
	if e.obs != nil {
		e.obs.pipeline, e.obs.runStart, e.obs.runSpan = time.Since(t0), t0, runSpan
	}
	if err != nil {
		return nil, 0, fmt.Errorf("pipeline: %w", err)
	}
	cw.Flush()
	if writeErr == nil {
		writeErr = cw.Error()
	}
	if writeErr != nil {
		return nil, 0, fmt.Errorf("writing output: %w", writeErr)
	}
	return rep, unknown, nil
}

// closeInto closes c and keeps its error unless one is already set:
// the journal, cache and output file must all reach disk inside the
// timed path, as they do in ermatch.
func closeInto(err *error, c io.Closer) {
	if cerr := c.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// score turns a finished iteration into its outcome: the ledger and
// shape from the report, digest and F1 from the output CSV.
func score(e *iterEnv, rep *batcher.PipelineReport, unknown int) (*outcome, error) {
	data, err := os.ReadFile(filepath.Join(e.scratch, fileOut))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	cr := csv.NewReader(bytes.NewReader(data))
	if _, err := cr.Read(); err != nil {
		return nil, fmt.Errorf("output header: %w", err)
	}
	rows, tp, fp := 0, 0, 0
	for {
		r, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("output row %d: %w", rows, err)
		}
		rows++
		if r[2] != "1" {
			continue
		}
		if e.gold[r[0]+"|"+r[1]] {
			tp++
		} else {
			fp++
		}
	}
	if rows != rep.Candidates {
		return nil, fmt.Errorf("output has %d rows for %d candidates", rows, rep.Candidates)
	}
	f1 := 0.0
	if tp > 0 {
		f1 = 100 * 2 * float64(tp) / float64(2*tp+fp+(len(e.gold)-tp))
	}
	l := &rep.Result.Ledger
	return &outcome{
		Candidates:   rep.Candidates,
		Unknown:      unknown,
		Digest:       hex.EncodeToString(sum[:]),
		BilledCalls:  l.Calls(),
		InputTokens:  l.InputTokens(),
		OutputTokens: l.OutputTokens(),
		APIUSD:       l.API(),
		LabelUSD:     l.Labeling(),
		Labeled:      l.LabeledPairs(),
		F1:           f1,
		Windows:      rep.Windows,
		PeakBuffered: rep.PeakBuffered,
		Replayed:     rep.Replayed,
	}, nil
}
