package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"batcher/batcher"
	"batcher/internal/blocking"
	"batcher/internal/cluster"
	"batcher/internal/core"
	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
	"batcher/internal/prompt"
	"batcher/internal/runstore"
	"batcher/internal/setcover"
	"batcher/internal/tokens"
)

// probeEnv is what the standalone layer probes run on: the measurer's
// inputs and stub, the tracer, and the traced iteration's observations.
type probeEnv struct {
	m      *measurer
	tr     *tracer
	parent int
	obs    *observations
}

// timed runs fn under a span named after the probe and returns how long
// it took.
func (p *probeEnv) timed(name string, fn func()) time.Duration {
	_, end := p.tr.begin(name, p.parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	return d
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per divides, reading 0 when there is nothing to divide by.
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// cacheProbePairs bounds the candidates the disk-cache probe resolves:
// it has to prepare them twice more, and a few hundred calls are enough
// to time a put and a hit.
const cacheProbePairs = 4 * windowPairs

// runProbes calls each layer's public functions on the workload's own
// tables and windows, single-threaded and in pipeline order, and writes
// the per-layer metrics into layers. Every layer is measured from
// outside; where the pipeline hands one layer's output to the next, the
// probe does the same.
func runProbes(ctx context.Context, p *probeEnv, layers map[string]float64) error {
	m := p.m
	// entity: stream both CSV tables through the incremental reader.
	var tableA, tableB []entity.Record
	var readErr error
	d := p.timed("entity.csv_read", func() {
		if tableA, readErr = readCSV(filepath.Join(m.dir, fileTableA)); readErr == nil {
			tableB, readErr = readCSV(filepath.Join(m.dir, fileTableB))
		}
	})
	if readErr != nil {
		return readErr
	}
	layers["entity.csv_read_ms"] = millis(d)
	layers["entity.csv_rows_per_s"] = float64(len(tableA)+len(tableB)) / d.Seconds()

	// blocking: drain the facade's token blocker.
	blocker := &blocking.TokenBlocker{Attr: blockAttr, MinShared: minShared, MaxPostings: 512}
	var pairs []entity.Pair
	var blockErr error
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	blockDur := p.timed("blocking.stream", func() {
		for pr, err := range blocker.BlockStream(ctx, tableA, tableB) {
			if err != nil {
				blockErr = err
				return
			}
			pairs = append(pairs, pr)
		}
	})
	runtime.ReadMemStats(&ms1)
	if blockErr != nil {
		return fmt.Errorf("blocking: %w", blockErr)
	}
	layers["blocking.stream_ms"] = millis(blockDur)
	layers["blocking.pairs"] = float64(len(pairs))
	layers["blocking.allocs_per_pair"] = per(float64(ms1.Mallocs-ms0.Mallocs), len(pairs))

	// The matcher layers, window by window as the pipeline cuts them.
	size := m.w.window
	if size <= 0 {
		size = len(pairs)
	}
	var windows [][]entity.Pair
	for lo := 0; lo < len(pairs); lo += size {
		windows = append(windows, pairs[lo:min(lo+size, len(pairs))])
	}
	keep := &observedClient{inner: m.stub, keep: true}
	fw := core.NewFromConfig(keep, core.Config{
		Batching: core.DiversityBatching, Selection: core.CoveringSelection, Seed: m.seed,
	})
	cfg := fw.Config()
	var warm, extract, eps, dbscan, greedy, prepare, exec time.Duration
	var clusters, demos, batches, labeled, promptTokens int
	var probeErr error
	for _, win := range windows {
		var profiles *feature.Profiles
		warm += p.timed("profile.warm", func() {
			profiles = feature.NewProfiles(cfg.Extractor)
			for _, pr := range win {
				profiles.Warm(pr)
			}
		})
		// core.Prepare extracts the window twice: as questions and as
		// its own demonstration pool.
		var qv, dv []feature.Vector
		extract += p.timed("feature.extract", func() {
			qv = feature.ExtractAllWith(profiles, cfg.Extractor, win)
			dv = feature.ExtractAllWith(profiles, cfg.Extractor, win)
		})
		var e float64
		eps += p.timed("cluster.eps_percentile", func() {
			e = cluster.EpsPercentile(qv, cfg.Distance, cfg.ClusterEpsPercentile, cfg.DistanceSampleCap, cfg.Seed)
		})
		dbscan += p.timed("cluster.dbscan", func() {
			clusters += len(cluster.DBSCAN(qv, cfg.Distance, e, cfg.ClusterMinPts).Clusters())
		})
		// The covering threshold is the same percentile calibration at
		// CoverPercentile (core samples with another seed above 512
		// points, so on collected the selected count can differ by a few
		// from core.labeled_pairs).
		t := cluster.EpsPercentile(qv, cfg.Distance, cfg.CoverPercentile, cfg.DistanceSampleCap, cfg.Seed+2)
		greedy += p.timed("setcover.greedy", func() {
			demos += len(setcover.GreedyThreshold(len(dv), len(qv),
				func(d, q int) float64 { return cfg.Distance(dv[d], qv[q]) }, t, nil))
		})
		var prep *core.Prepared
		prepare += p.timed("core.prepare", func() {
			prep, probeErr = fw.Prepare(feature.WithProfiles(ctx, profiles), win, win)
		})
		if probeErr != nil {
			return fmt.Errorf("core.Prepare: %w", probeErr)
		}
		batches += len(prep.Batches())
		labeled += len(prep.LabeledPool())
		exec += p.timed("core.exec", func() {
			st := prep.Start(ctx)
			res := st.NewResult()
			for br := range st.All() {
				res.Apply(br)
			}
			probeErr = st.Err()
			promptTokens += res.PromptTokens
		})
		if probeErr != nil {
			return fmt.Errorf("core exec: %w", probeErr)
		}
	}
	layers["profile.warm_ms"] = millis(warm)
	layers["feature.extract_ms"] = millis(extract)
	layers["feature.extract_us_per_pair"] = per(micros(extract), len(pairs))
	layers["cluster.eps_percentile_ms"] = millis(eps)
	layers["cluster.dbscan_ms"] = millis(dbscan)
	layers["cluster.clusters_per_window"] = per(float64(clusters), len(windows))
	layers["setcover.greedy_ms"] = millis(greedy)
	layers["setcover.demos_selected"] = float64(demos)
	layers["core.prepare_ms"] = millis(prepare)
	layers["core.prepare_self_ms"] = millis(prepare - extract - eps - dbscan - greedy)
	layers["core.exec_ms"] = millis(exec)
	layers["core.batches"] = float64(batches)
	layers["core.labeled_pairs"] = float64(labeled)
	layers["core.prompt_tokens_per_pair"] = per(float64(promptTokens), len(pairs))
	// What the executor itself costs: the traced run's wall-clock minus
	// every stage the probes account for. Only a run that executes the
	// matcher against a free LLM has such a remainder.
	layers["pipeline.overhead_ms"] = 0
	if !m.w.latency && !m.w.replay {
		layers["pipeline.overhead_ms"] = millis(p.obs.pipeline - blockDur - warm - prepare - exec)
	}

	if err := probePrompts(p, keep, cfg.TaskDescription, layers); err != nil {
		return err
	}
	if err := probeCache(ctx, p, pairs, layers); err != nil {
		return err
	}
	return probeJournal(ctx, p, layers)
}

// readCSV drains one table through entity.NewCSVReader.Read.
func readCSV(path string) ([]entity.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := entity.NewCSVReader(f, path)
	if err != nil {
		return nil, err
	}
	var out []entity.Record
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// probePrompts times prompt building, answer parsing, token counting
// and request hashing over the requests the exec probe made.
func probePrompts(p *probeEnv, keep *observedClient, desc string, layers map[string]float64) error {
	n := len(keep.requests)
	parsed := make([]*prompt.Parsed, n)
	bytes := 0
	for i, req := range keep.requests {
		pp, err := prompt.Parse(req.Prompt)
		if err != nil {
			return fmt.Errorf("parsing recorded prompt %d: %w", i, err)
		}
		parsed[i] = pp
		bytes += len(req.Prompt)
	}
	var rebuilt int
	d := p.timed("prompt.build", func() {
		for i, pp := range parsed {
			if prompt.Build(desc, pp.Demos, pp.Questions).Text == keep.requests[i].Prompt {
				rebuilt++
			}
		}
	})
	if rebuilt != n {
		return fmt.Errorf("prompt.Build reproduced %d of %d recorded prompts", rebuilt, n)
	}
	layers["prompt.build_us_per_call"] = per(micros(d), n)
	d = p.timed("prompt.parse_answers", func() {
		for i, c := range keep.completions {
			prompt.ParseAnswers(c, len(parsed[i].Questions))
		}
	})
	layers["prompt.parse_us_per_call"] = per(micros(d), n)
	d = p.timed("tokens.count", func() {
		for _, req := range keep.requests {
			tokens.Count(req.Prompt)
		}
	})
	layers["tokens.count_us_per_call"] = per(micros(d), n)
	layers["tokens.count_mb_per_s"] = 0
	if d > 0 {
		layers["tokens.count_mb_per_s"] = float64(bytes) / 1e6 / d.Seconds()
	}
	d = p.timed("llm.cachekey", func() {
		for _, req := range keep.requests {
			llm.CacheKey(req)
		}
	})
	layers["llm.cachekey_us_per_call"] = per(micros(d), n)
	return nil
}

// probeCache times the disk cache's two paths. Requests may only reach
// a client through core, so the probe resolves the first windows twice
// through observer -> runstore.Cache -> observer -> stub: the first pass
// misses and stores (outer minus inner time is the put), the second
// hits (outer time is the hit).
func probeCache(ctx context.Context, p *probeEnv, pairs []entity.Pair, layers map[string]float64) error {
	m := p.m
	dir := filepath.Join(m.dir, "probe-cache")
	inner := &observedClient{inner: m.stub}
	cache, err := runstore.OpenCache(ctx, inner, dir, 0)
	if err != nil {
		return err
	}
	outer := &observedClient{inner: cache}
	fw := core.NewFromConfig(outer, core.Config{
		Batching: core.DiversityBatching, Selection: core.CoveringSelection, Seed: m.seed,
	})
	pairs = pairs[:min(len(pairs), cacheProbePairs)]
	resolve := func() error {
		for lo := 0; lo < len(pairs); lo += windowPairs {
			win := pairs[lo:min(lo+windowPairs, len(pairs))]
			if _, err := fw.Resolve(ctx, win, win); err != nil {
				return err
			}
		}
		return nil
	}
	var passErr error
	p.timed("runstore.cache_put", func() { passErr = resolve() })
	if passErr != nil {
		cache.Close()
		return fmt.Errorf("cache put pass: %w", passErr)
	}
	layers["runstore.cache_put_us_per_call"] = per(micros(outer.busy()-inner.busy()), len(outer.calls))
	missCalls := len(inner.calls)
	outer.reset()
	p.timed("runstore.cache_hit", func() { passErr = resolve() })
	if passErr != nil {
		cache.Close()
		return fmt.Errorf("cache hit pass: %w", passErr)
	}
	if len(inner.calls) != missCalls {
		cache.Close()
		return fmt.Errorf("cache hit pass let %d requests through", len(inner.calls)-missCalls)
	}
	layers["runstore.cache_hit_us_per_call"] = per(micros(outer.busy()), len(outer.calls))
	return cache.Close()
}

// probeJournal times the journal's write, open and replay paths on a
// finished journal of this workload's own run: one journaled
// zero-latency run produces it, every record is re-appended into a
// fresh journal (synced once at the end), the journal is reopened, and
// a resumed run replays it with zero LLM calls. On merge_replay the open
// and replay numbers are the traced iteration's own spans over the
// merged journal.
func probeJournal(ctx context.Context, p *probeEnv, layers map[string]float64) error {
	m := p.m
	scratch := filepath.Join(m.dir, "probe-journal")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	w := m.w
	w.inFlight, w.latency, w.replay, w.durable = 1, false, false, false
	tableA, tableB, err := readTables(m.dir)
	if err != nil {
		return err
	}
	run := func(resume bool) (*batcher.PipelineReport, time.Duration, error) {
		var j *batcher.RunJournal
		var err error
		open := p.timed("runstore.open", func() { j, err = batcher.OpenRunJournal(ctx, scratch, "run", resume) })
		if err != nil {
			return nil, 0, err
		}
		rep, err := batcher.RunPipeline(ctx, batcher.PipelineConfig{
			BlockAttr: blockAttr, MinSharedTokens: minShared, StreamWindow: w.window,
			Matcher: matcherOptions(w, m.seed), Journal: j,
		}, m.stub, tableA, tableB)
		if err != nil {
			j.Close()
			return nil, 0, err
		}
		return rep, open, j.Close()
	}
	if _, _, err := run(false); err != nil {
		return fmt.Errorf("journaled probe run: %w", err)
	}
	calls := m.stub.calls.Load()
	var rep *batcher.PipelineReport
	var open time.Duration
	replay := p.timed("pipeline.replay", func() { rep, open, err = run(true) })
	if err != nil {
		return fmt.Errorf("replaying probe journal: %w", err)
	}
	if rep.Replayed != rep.Candidates || m.stub.calls.Load() != calls {
		return fmt.Errorf("probe replay matched %d of %d candidates afresh with %d LLM calls",
			rep.Candidates-rep.Replayed, rep.Candidates, m.stub.calls.Load()-calls)
	}
	layers["runstore.open_ms"] = millis(open)
	if !m.w.replay {
		layers["pipeline.replay_ms"] = millis(replay - open)
	} else {
		layers["runstore.open_ms"] = millis(p.obs.open)
	}

	// Re-append the finished journal record by record.
	src, err := runstore.OpenJournal(ctx, filepath.Join(scratch, "run"))
	if err != nil {
		return err
	}
	defer src.Close()
	st := src.State()
	dstDir := filepath.Join(scratch, "copy")
	dst, err := runstore.OpenJournal(ctx, dstDir)
	if err != nil {
		return err
	}
	records := 0
	var appendErr error
	note := func(err error) {
		records++
		if err != nil && appendErr == nil {
			appendErr = err
		}
	}
	d := p.timed("runstore.append", func() {
		if meta, ok := st.Meta(); ok {
			note(dst.WriteMeta(meta))
		}
		for i := 0; i < st.Windows(); i++ {
			if ws, ok := st.WindowStart(i); ok {
				note(dst.WindowStart(ws))
			}
			for _, b := range st.WindowBatches(i) {
				note(dst.BatchDone(b))
			}
		}
		if done, ok := st.Done(); ok {
			note(dst.Done(done))
		}
		note(dst.Sync())
		records-- // Sync is not a record
	})
	if appendErr != nil {
		dst.Close()
		return fmt.Errorf("re-appending journal: %w", appendErr)
	}
	if err := dst.Close(); err != nil {
		return err
	}
	size, err := dirBytes(dstDir)
	if err != nil {
		return err
	}
	layers["runstore.append_us_per_record"] = per(micros(d), records)
	layers["runstore.journal_bytes_per_pair"] = per(float64(size), rep.Candidates)
	return nil
}

// dirBytes sums the sizes of the files directly inside dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
