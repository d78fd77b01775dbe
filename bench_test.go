// Package repro_bench holds the root benchmark harness: one testing.B
// target per table and figure of the paper's evaluation (Section VI),
// plus ablation benches for knobs the paper fixes (see
// docs/ARCHITECTURE.md, "Offline substitutions", for what the benches
// run on in place of the paper's models and data).
//
// Each bench runs its experiment on reduced-but-representative settings
// (capped question counts, one seed) so `go test -bench=.` finishes in
// minutes; cmd/erbench runs the full-size versions. Benches report the
// paper-relevant quantities (F1, dollars, labels) as custom metrics
// alongside ns/op.
package repro_bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/cluster"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/eval"
	"batcher/internal/feature"
	"batcher/internal/llm"
	"batcher/internal/metrics"
	"batcher/internal/pipeline"
	"batcher/internal/prompt"
	"batcher/internal/runstore"
	"batcher/internal/setcover"
	"batcher/internal/shard"
	"batcher/internal/strsim"
	"batcher/internal/tokens"
)

// benchOpts are the reduced settings shared by the table benches.
func benchOpts(datasets ...string) eval.Options {
	return eval.Options{
		Datasets:    datasets,
		Seeds:       []int64{1},
		QuestionCap: 160,
		PoolCap:     600,
	}
}

// BenchmarkTable3StandardVsBatch regenerates Table III (standard vs batch
// prompting: F1 and API cost) on a dataset spread.
func BenchmarkTable3StandardVsBatch(b *testing.B) {
	o := benchOpts("WA", "DA", "Beer")
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable3(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var saving, stdF1, batchF1 float64
			for _, r := range rows {
				saving += r.StandardAPI / r.BatchAPI
				stdF1 += r.StandardF1.Mean
				batchF1 += r.BatchF1.Mean
			}
			n := float64(len(rows))
			b.ReportMetric(saving/n, "x-saving")
			b.ReportMetric(stdF1/n, "F1-std")
			b.ReportMetric(batchF1/n, "F1-batch")
		}
	}
}

// BenchmarkFigure6PrecisionRecall regenerates Figure 6 (precision/recall
// decomposition of the batch prompting gain on WA and AB).
func BenchmarkFigure6PrecisionRecall(b *testing.B) {
	o := benchOpts("WA", "AB")
	// Precision decomposition needs a workload large enough for the FP
	// counts to dominate seed noise.
	o.QuestionCap = 400
	o.PoolCap = 1000
	for i := 0; i < b.N; i++ {
		bars, err := eval.RunFigure6(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, bar := range bars {
				if bar.Dataset == "WA" && bar.Method == "Batch" {
					b.ReportMetric(bar.Precision, "P-batch-WA")
				}
				if bar.Dataset == "WA" && bar.Method == "Standard" {
					b.ReportMetric(bar.Precision, "P-std-WA")
				}
			}
		}
	}
}

// BenchmarkTable4DesignSpace regenerates Table IV (the 3x4 design-space
// grid) on one mid-hard dataset.
func BenchmarkTable4DesignSpace(b *testing.B) {
	o := benchOpts("WA")
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable4(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r := rows[0]
			divCover := r.Cell(core.DiversityBatching, core.CoveringSelection)
			simFixed := r.Cell(core.SimilarityBatching, core.FixedSelection)
			topkQ := r.Cell(core.DiversityBatching, core.TopKQuestion)
			b.ReportMetric(divCover.F1.Mean, "F1-div-cover")
			b.ReportMetric(simFixed.F1.Mean, "F1-sim-fixed")
			b.ReportMetric(divCover.Label, "$label-cover")
			b.ReportMetric(topkQ.Label, "$label-topkq")
		}
	}
}

// BenchmarkFigure7LearningCurves regenerates Figure 7 (PLM learning
// curves vs BATCHER's flat line) on one dataset.
func BenchmarkFigure7LearningCurves(b *testing.B) {
	o := benchOpts("IA")
	sizes := []int{25, 100, 300}
	for i := 0; i < b.N; i++ {
		series, err := eval.RunFigure7(o, sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				if s.Method == "BatchER" {
					b.ReportMetric(s.Points[0].F1, "F1-batcher")
					b.ReportMetric(float64(s.LabeledPairs), "labels-batcher")
				}
				if s.Method == "Ditto" {
					b.ReportMetric(s.Points[0].F1, "F1-ditto-n25")
					b.ReportMetric(s.Points[len(s.Points)-1].F1, "F1-ditto-full")
				}
			}
		}
	}
}

// BenchmarkTable5ManualPrompt regenerates Table V (ManualPrompt vs batch
// prompting: comparable F1 at ~20% of the API cost).
func BenchmarkTable5ManualPrompt(b *testing.B) {
	o := benchOpts("DA")
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable5(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r := rows[0]
			b.ReportMetric(r.ManualF1, "F1-manual")
			b.ReportMetric(r.BatchF1, "F1-batch")
			b.ReportMetric(r.BatchAPI/r.ManualAPI, "cost-ratio")
		}
	}
}

// BenchmarkTable6LLMs regenerates Table VI (underlying LLM comparison:
// GPT-3.5 snapshots vs GPT-4 on F1 and API cost).
func BenchmarkTable6LLMs(b *testing.B) {
	o := benchOpts("WA")
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable6(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r := rows[0]
			g35 := r.ByModel[llm.GPT35Turbo0301]
			g4 := r.ByModel[llm.GPT4]
			b.ReportMetric(g35.F1, "F1-gpt35-03")
			b.ReportMetric(g4.F1, "F1-gpt4")
			b.ReportMetric(g4.API/g35.API, "gpt4-premium")
		}
	}
}

// BenchmarkTable7FeatureExtractors regenerates Table VII (structure-aware
// vs semantics-based feature extraction).
func BenchmarkTable7FeatureExtractors(b *testing.B) {
	o := benchOpts("WA")
	o.QuestionCap = 240
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable7(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r := rows[0]
			b.ReportMetric(r.LR, "F1-LR")
			b.ReportMetric(r.JAC, "F1-JAC")
			b.ReportMetric(r.SEM, "F1-SEM")
		}
	}
}

// --- Ablation benches: design choices beyond the paper's tables ---------

// ablationWorkload prepares a fixed workload for the ablation benches.
func ablationWorkload(b *testing.B, name string, qcap int) ([]entity.Pair, []entity.Pair, llm.MapOracle) {
	b.Helper()
	d, err := datagen.GenerateByName(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	split := entity.SplitPairs(d.Pairs)
	qs := split.Test
	if len(qs) > qcap {
		qs = qs[:qcap]
	}
	pool := split.Train
	if len(pool) > 800 {
		pool = pool[:800]
	}
	all := append(append([]entity.Pair(nil), qs...), pool...)
	return qs, pool, llm.BuildOracle(all)
}

func runConfig(b *testing.B, cfg core.Config, qs, pool []entity.Pair, oracle llm.MapOracle) (metrics.Confusion, *core.Result) {
	b.Helper()
	cfg.Seed = 1
	f := core.NewFromConfig(llm.NewSimulated(oracle, 1), cfg)
	res, err := f.Resolve(context.Background(), qs, pool)
	if err != nil {
		b.Fatal(err)
	}
	var c metrics.Confusion
	c.AddAll(entity.Labels(qs), res.Pred)
	return c, res
}

// benchAblation times an internal/eval ablation sweep and reports each
// setting's F1, labelled pairs and API milli-dollars on the first
// dataset, from the first iteration.
func benchAblation(b *testing.B, sweep func() ([]eval.AblationResult, error)) {
	for i := 0; i < b.N; i++ {
		res, err := sweep()
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		for _, p := range res[0].Points {
			name := strings.ReplaceAll(p.Setting, " ", "-")
			b.ReportMetric(p.F1, "F1-"+name)
			b.ReportMetric(float64(p.Labels), "labels-"+name)
			b.ReportMetric(p.API*1000, "m$-api-"+name)
		}
	}
}

// BenchmarkAblationCoverThreshold sweeps the covering-threshold percentile
// (the paper fixes the 8th percentile; docs/ARCHITECTURE.md, "Offline
// substitutions", names the trade-off: smaller t -> more labels, larger
// t -> lower accuracy).
func BenchmarkAblationCoverThreshold(b *testing.B) {
	benchAblation(b, func() ([]eval.AblationResult, error) {
		return eval.RunAblationCoverThreshold(benchOpts("WA"), []float64{0.02, 0.08, 0.25})
	})
}

// BenchmarkAblationBatchSize sweeps the batch size (the paper fixes 8 to
// stay inside context limits; bigger batches amortize more tokens).
func BenchmarkAblationBatchSize(b *testing.B) {
	benchAblation(b, func() ([]eval.AblationResult, error) {
		return eval.RunAblationBatchSize(benchOpts("DA"), []int{2, 8, 16})
	})
}

// BenchmarkAblationDistance compares Euclidean (the paper's choice)
// against cosine distance for clustering and selection.
func BenchmarkAblationDistance(b *testing.B) {
	benchAblation(b, func() ([]eval.AblationResult, error) {
		return eval.RunAblationDistance(benchOpts("WA"))
	})
}

// BenchmarkAblationVoteK compares the paper's covering-based selection
// against the vote-k selective-annotation extension on accuracy and
// labeling need.
func BenchmarkAblationVoteK(b *testing.B) {
	qs, pool, oracle := ablationWorkload(b, "WA", 160)
	for i := 0; i < b.N; i++ {
		for _, sel := range []core.SelectStrategy{core.CoveringSelection, core.VoteKSelection} {
			cfg := core.Config{Batching: core.DiversityBatching, Selection: sel}
			c, res := runConfig(b, cfg, qs, pool, oracle)
			if i == 0 {
				b.ReportMetric(c.F1(), "F1-"+sel.String())
				b.ReportMetric(float64(res.Ledger.LabeledPairs()), "labels-"+sel.String())
			}
		}
	}
}

// --- Blocking benches: the candidate-generation stage ------------------

// blockingTables synthesizes two n-row tables with realistic overlap for
// the blocking benches: each A row shares its two key tokens with one B
// row and one token with ~1% of the rest.
func blockingTables(n int) ([]entity.Record, []entity.Record) {
	ta := make([]entity.Record, 0, n)
	tb := make([]entity.Record, 0, n)
	for i := 0; i < n; i++ {
		title := fmt.Sprintf("item%d group%d", i, i%97)
		ta = append(ta, entity.NewRecord(fmt.Sprintf("a%d", i), []string{"title"}, []string{title}))
		tb = append(tb, entity.NewRecord(fmt.Sprintf("b%d", i), []string{"title"}, []string{title}))
	}
	return ta, tb
}

// BenchmarkBlockingEngines drains both blockers' candidate streams over
// an 8k x 8k workload (inverted-index build + candidate generation),
// reporting the candidate count so selectivity regressions show up
// alongside time. The Pipebench arms block the datagen.PipelineBenchSpec
// tables at seed 1 the way the benchmark module does (title, posting cap
// 512) and the way ermatch does by default (all attributes, same cap),
// reporting their pair counts.
func BenchmarkBlockingEngines(b *testing.B) {
	ta, tb := blockingTables(8000)
	d, err := datagen.GenerateCustom(datagen.PipelineBenchSpec(8000), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name           string
		blocker        blocking.Blocker
		tableA, tableB []entity.Record
		unit           string
	}{
		{"Token", &blocking.TokenBlocker{Attr: "title", MinShared: 2}, ta, tb, "candidates"},
		{"MinHash", &blocking.MinHashBlocker{Attr: "title"}, ta, tb, "candidates"},
		{"Pipebench-title", &blocking.TokenBlocker{Attr: "title", MinShared: 2, MaxPostings: 512}, d.TableA, d.TableB, "pairs"},
		{"Pipebench-all", &blocking.TokenBlocker{MinShared: 2, MaxPostings: 512}, d.TableA, d.TableB, "pairs"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			cands := 0
			for i := 0; i < b.N; i++ {
				cands = len(drainBlocker(b, bc.blocker, bc.tableA, bc.tableB))
			}
			b.ReportMetric(float64(cands), bc.unit)
		})
	}
}

// drainBlocker collects a blocker's candidate stream.
func drainBlocker(b *testing.B, blocker blocking.Blocker, tableA, tableB []entity.Record) []entity.Pair {
	var pairs []entity.Pair
	for p, err := range blocker.BlockStream(context.Background(), tableA, tableB) {
		if err != nil {
			b.Fatal(err)
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// BenchmarkBlockingWindowedPipeline measures the overlapped
// blocking+matching pipeline on a 4k x 4k table pair with a 256-pair
// window, reporting the peak inter-stage buffer.
func BenchmarkBlockingWindowedPipeline(b *testing.B) {
	ta, tb := blockingTables(4000)
	client := llm.NewSimulated(nil, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var peak, cands int
	for i := 0; i < b.N; i++ {
		rep, err := pipeline.Run(context.Background(), pipeline.Config{
			Blocker:      &blocking.TokenBlocker{Attr: "title", MinShared: 2},
			Matcher:      core.Config{Batching: core.RandomBatching, Selection: core.FixedSelection, Seed: 1},
			StreamWindow: 256,
		}, client, ta, tb)
		if err != nil {
			b.Fatal(err)
		}
		peak, cands = rep.PeakBuffered, rep.Candidates
	}
	b.ReportMetric(float64(peak), "peak-buffered")
	b.ReportMetric(float64(cands), "candidates")
}

// --- Hot-path kernel benches ------------------------------------------

// BenchmarkStrsimKernels times the two per-attribute similarities of the
// structure-aware extractors: LevenshteinRatio (LR) runs the
// pooled-scratch DP, Jaccard (JAC) tokenizes both operands into one
// pooled byte buffer, sorts and dedupes each operand's tokens by their
// bytes and counts the intersection with a merge. Both allocate nothing
// in steady state.
func BenchmarkStrsimKernels(b *testing.B) {
	x := "Apple iPhone 13 Pro Max 256GB graphite smartphone"
	y := "iphone 13 pro 256 gb graphite apple (renewed)"
	b.Run("LevenshteinRatio/Strings", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			strsim.LevenshteinRatio(x, y)
		}
	})
	b.Run("Jaccard/Strings", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			strsim.Jaccard(x, y)
		}
	})
}

// BenchmarkPromptText times the two text kernels every LLM call pays:
// prompt.Build renders a batch of 8 datagen questions with 4
// demonstrations, and tokens.Count meters the result. The builder
// allocates its one buffer; the meter allocates nothing.
func BenchmarkPromptText(b *testing.B) {
	d, err := datagen.GenerateByName("WA", 1)
	if err != nil {
		b.Fatal(err)
	}
	demos := make([]prompt.Demo, 4)
	for i := range demos {
		demos[i] = prompt.Demo{Pair: d.Pairs[8+i], Label: d.Pairs[8+i].Truth}
	}
	qs := d.Pairs[:8]
	var bytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := prompt.Build(prompt.DefaultTaskDescription, demos, qs).Text
		tokens.Count(text)
		bytes = len(text)
	}
	b.SetBytes(int64(bytes))
}

// featureWorkload synthesizes a candidate window with realistic record
// reuse: nRec records per side crossed into pairs so each record appears
// in many candidates, as in a blocked window.
func featureWorkload(nRec, nPairs int) []entity.Pair {
	recs := func(side string) []entity.Record {
		out := make([]entity.Record, nRec)
		for i := range out {
			out[i] = entity.NewRecord(fmt.Sprintf("%s%d", side, i),
				[]string{"title", "brand", "price"},
				[]string{
					fmt.Sprintf("Apple iPhone %d Pro Max %dGB graphite", i%20, 64<<(i%4)),
					"Apple Inc.",
					fmt.Sprintf("%d.99", 700+i%300),
				})
		}
		return out
	}
	ra, rb := recs("a"), recs("b")
	pairs := make([]entity.Pair, nPairs)
	for i := range pairs {
		pairs[i] = entity.Pair{A: ra[i%nRec], B: rb[(i*7)%nRec]}
	}
	return pairs
}

// BenchmarkFeatureExtraction contrasts a sequential per-pair Extract loop
// against ExtractAll, which fans the same calls out across CPUs, for the
// JAC and semantic extractors on a 2k-pair window over 200 records per
// side.
func BenchmarkFeatureExtraction(b *testing.B) {
	pairs := featureWorkload(200, 2000)
	for _, ex := range []feature.Extractor{feature.NewJAC(), feature.NewSEM()} {
		b.Run(ex.Name()+"/PerPair", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					ex.Extract(p)
				}
			}
		})
		b.Run(ex.Name()+"/ExtractAll", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				feature.ExtractAll(ex, pairs)
			}
		})
	}
}

// BenchmarkWindowGeometry measures the O(n^2) steps of core.Prepare one
// by one, on the geometry the pipeline benchmark feeds them: LR vectors
// of token-blocked candidates of the datagen.PipelineBenchSpec tables, cut
// into a 512-pair window (the benchmark's -stream-window) and a
// 4096-pair one (towards the collect-then-match shape). Thresholds are
// cluster.EpsPercentile calibrations at core's default percentiles and
// sample cap: at 512 points the ones core calibrates (the window is its
// own sample); at 4 096 the GreedyThreshold arm's t is drawn with
// EpsPercentile's seeded shuffle, where core samples t with a rand.Perm
// at Seed+2, so it is close to core's but not equal. The Calibrate-512
// arms are core's unsampled calibration — one cluster.Measure, both
// percentiles selected from its class buffer — on the LR window above,
// which is duplicate-rich, and on a window of datagen DS's test split,
// which is nearly all distinct; both report how many of the 512 are
// distinct. The Sweep-4096 arms time cluster.Sweep, which calls
// Distance once per pair of distinct vectors and keeps no distance, and
// report how many of the 4 096 are distinct and the bytes the two
// relations keep live (retained-B/op). Every step also reports its
// Config.Distance calls per op, counted on one untimed run with a
// counting distance so the timed runs pay for no counter.
func BenchmarkWindowGeometry(b *testing.B) {
	d, err := datagen.GenerateCustom(datagen.PipelineBenchSpec(4000), 1)
	if err != nil {
		b.Fatal(err)
	}
	cands := drainBlocker(b, &blocking.TokenBlocker{Attr: "title", MinShared: 2}, d.TableA, d.TableB)
	if len(cands) < 4096 {
		b.Fatalf("blocking produced %d candidates, need 4096", len(cands))
	}
	base := core.Config{Batching: core.DiversityBatching, Selection: core.CoveringSelection, Seed: 1}
	cfg := core.NewFromConfig(llm.NewSimulated(nil, 1), base).Config()
	vecs := feature.ExtractAll(cfg.Extractor, cands[:4096])
	dsData, err := datagen.GenerateByName("DS", 1)
	if err != nil {
		b.Fatal(err)
	}
	dsTest := entity.SplitPairs(dsData.Pairs).Test
	if len(dsTest) < 4096 {
		b.Fatalf("DS test split has %d pairs, need 4096", len(dsTest))
	}
	dsVecs := feature.ExtractAll(cfg.Extractor, dsTest[:4096])
	// run times step(cfg.Distance) and reports the calls step(counting
	// distance) makes, with whatever metric step returns and the extra
	// metrics given.
	run := func(name, unit string, step func(dist feature.Distance) int, extra ...func(b *testing.B)) {
		b.Run(name, func(b *testing.B) {
			var calls atomic.Int64
			step(func(x, y feature.Vector) float64 { calls.Add(1); return cfg.Distance(x, y) })
			b.ReportAllocs()
			b.ResetTimer()
			var out int
			for i := 0; i < b.N; i++ {
				out = step(cfg.Distance)
			}
			b.ReportMetric(float64(calls.Load()), "dist-calls/op")
			if unit != "" {
				b.ReportMetric(float64(out), unit)
			}
			for _, report := range extra {
				report(b)
			}
		})
	}
	run("EpsPercentile-512", "", func(dist feature.Distance) int {
		cluster.EpsPercentile(vecs[:512], dist, cfg.ClusterEpsPercentile, cfg.DistanceSampleCap, cfg.Seed)
		return 0
	})
	for _, set := range []struct {
		name string
		vecs []feature.Vector
	}{{"LR", vecs[:512]}, {"LR-DS", dsVecs[:512]}} {
		u := distinctVectors(set.vecs)
		run("Calibrate-512-"+set.name, "distinct", func(dist feature.Distance) int {
			cluster.Measure(set.vecs, dist).Percentiles(cfg.ClusterEpsPercentile, cfg.CoverPercentile)
			return u
		})
	}
	for _, n := range []int{512, 4096} {
		qv := vecs[:n]
		t := cluster.EpsPercentile(qv, cfg.Distance, cfg.CoverPercentile, cfg.DistanceSampleCap, cfg.Seed+2)
		run(fmt.Sprintf("GreedyThreshold-%d", n), "demos", func(dist feature.Distance) int {
			return len(setcover.GreedyThreshold(n, n, func(d, q int) float64 { return dist(qv[d], qv[q]) }, t, nil))
		})
	}
	for _, n := range []int{512, 4096} {
		qv := vecs[:n]
		eps := cluster.EpsPercentile(qv, cfg.Distance, cfg.ClusterEpsPercentile, cfg.DistanceSampleCap, cfg.Seed)
		run(fmt.Sprintf("DBSCAN-%d", n), "clusters", func(dist feature.Distance) int {
			return cluster.DBSCAN(qv, dist, eps, cfg.ClusterMinPts).K
		})
	}
	// The sweep as Prepare runs it above the sample cap — no distance
	// buffer, both relations — on three vector sets with their distinct
	// share reported: the LR vectors above, JAC vectors of the same
	// candidates (few distinct values) and LR vectors of datagen DS's test
	// split (mostly distinct).
	for _, set := range []struct {
		name string
		vecs []feature.Vector
	}{
		{"LR", vecs},
		{"JAC", feature.ExtractAll(feature.NewJAC(), cands[:4096])},
		{"LR-DS", dsVecs},
	} {
		qv := set.vecs
		eps := cluster.EpsPercentile(qv, cfg.Distance, cfg.ClusterEpsPercentile, cfg.DistanceSampleCap, cfg.Seed)
		t := cluster.EpsPercentile(qv, cfg.Distance, cfg.CoverPercentile, cfg.DistanceSampleCap, cfg.Seed+2)
		u := distinctVectors(qv)
		retained := retainedBytes(func() any {
			within, below := cluster.Sweep(qv, cfg.Distance, eps, true, t, true)
			return [2]any{within, below}
		})
		run("Sweep-4096-"+set.name, "distinct", func(dist feature.Distance) int {
			cluster.Sweep(qv, dist, eps, true, t, true)
			return u
		}, func(b *testing.B) { b.ReportMetric(retained, "retained-B/op") })
	}
	for _, n := range []int{512, 4096} {
		window := cands[:n]
		run(fmt.Sprintf("Prepare-%d-selfpooled", n), "labeled", func(dist feature.Distance) int {
			c := base
			c.Distance = dist
			prep, err := core.NewFromConfig(llm.NewSimulated(nil, 1), c).Prepare(context.Background(), window, window)
			if err != nil {
				b.Fatal(err)
			}
			return len(prep.LabeledPool())
		})
	}
}

// retainedBytes is how much live heap the value build returns holds:
// the heap in use after a collection, with the value against without.
func retainedBytes(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// distinctVectors counts the distinct values among vs, two vectors being
// the same value when they have the same length and the same float64
// bits in every component.
func distinctVectors(vs []feature.Vector) int {
	seen := map[string]bool{}
	for _, v := range vs {
		key := make([]byte, 0, 8*len(v))
		for _, x := range v {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
		}
		seen[string(key)] = true
	}
	return len(seen)
}

// BenchmarkSelection times demonstration selection the way the paper's
// tables run it: one 512-question window of datagen DS's test split
// against the whole training split as a separate pool (≈ 17 k pairs,
// uncapped), diversity batching, one sub-benchmark per selection
// strategy. Each op is Prepare's feature extraction, batching and
// selection; dist-calls/op counts the distance evaluations of one
// Prepare.
func BenchmarkSelection(b *testing.B) {
	d, err := datagen.GenerateByName("DS", 1)
	if err != nil {
		b.Fatal(err)
	}
	split := entity.SplitPairs(d.Pairs)
	window, pool := split.Test[:512], split.Train
	for _, s := range []core.SelectStrategy{core.TopKBatch, core.TopKQuestion, core.VoteKSelection, core.CoveringSelection} {
		b.Run(s.String(), func(b *testing.B) {
			base := core.Config{Batching: core.DiversityBatching, Selection: s, Seed: 1}
			cfg := core.NewFromConfig(llm.NewSimulated(nil, 1), base).Config()
			prepare := func(dist feature.Distance) int {
				c := base
				c.Distance = dist
				prep, err := core.NewFromConfig(llm.NewSimulated(nil, 1), c).Prepare(context.Background(), window, pool)
				if err != nil {
					b.Fatal(err)
				}
				return len(prep.LabeledPool())
			}
			var calls atomic.Int64
			labeled := prepare(func(x, y feature.Vector) float64 { calls.Add(1); return cfg.Distance(x, y) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prepare(cfg.Distance)
			}
			b.ReportMetric(float64(calls.Load()), "dist-calls/op")
			b.ReportMetric(float64(labeled), "labeled")
		})
	}
}

// BenchmarkRecovery times the path an operator waits on after
// -merge-shards or a crash: merging shard journals, opening the merged
// journal for replay, and — for scale — what the live journal's appends
// cost with their flush policy on. The set is the benchmark's
// merge_replay shape built straight through the runstore API: 4 shards,
// 30 windows of 512 pairs in batches of 8, so ~1 950 records. Each step
// reports MB/s over the journal bytes it reads or writes and the fsyncs
// it issues per op — a merge is one sequential write and one flush,
// the live journal pays one fsync per 16 records for crash safety.
func BenchmarkRecovery(b *testing.B) {
	const shards, windows, windowPairs, batchSize = 4, 30, 512, 8
	ctx := context.Background()
	meta := runstore.RunMeta{
		Model: "gpt-3.5-turbo-0301", Seed: 1, BatchSize: batchSize, NumDemos: 8,
		Batching: "diversity", Selection: "covering", StreamWindow: windowPairs,
		RowsA: 8000, RowsB: 8000, TableHash: "feedc0de4badf00d01234567", CreatedUnix: 1700000000,
	}
	// writeWindow journals stream window g as j's window idx.
	writeWindow := func(j *runstore.Journal, idx, g int) {
		key := func(q int) string { return fmt.Sprintf("a%d|b%d", g*windowPairs+q, (g*windowPairs+q)*7%8000) }
		labeled := make([]int, 48)
		for i := range labeled {
			labeled[i] = i * 10
		}
		err := j.WindowStart(runstore.WindowStart{Index: idx, Offset: idx * windowPairs, Size: windowPairs, Labeled: labeled, Global: g, Key: key(0)})
		if err != nil {
			b.Fatal(err)
		}
		for bi := 0; bi < windowPairs/batchSize; bi++ {
			bd := runstore.BatchDone{
				Window: idx, Batch: bi, Calls: 1, InputTokens: 1000 + bi, OutputTokens: 60 + bi%9,
				APIDollars: 0.001049 + float64(bi)*1e-7,
			}
			for q := bi * batchSize; q < (bi+1)*batchSize; q++ {
				bd.Questions = append(bd.Questions, q)
				bd.Keys = append(bd.Keys, key(q))
				bd.Pred = append(bd.Pred, entity.Label(q%2))
			}
			if err := j.BatchDone(bd); err != nil {
				b.Fatal(err)
			}
		}
	}
	dirBytes := func(dir string) int64 {
		entries, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for _, e := range entries {
			fi, err := e.Info()
			if err != nil {
				b.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}

	root := b.TempDir()
	shardDirs := make([]string, shards)
	var shardBytes int64
	for i := range shardDirs {
		shardDirs[i] = filepath.Join(root, fmt.Sprintf("shard-%d", i))
		j, err := runstore.OpenJournal(ctx, shardDirs[i])
		if err != nil {
			b.Fatal(err)
		}
		m := meta
		m.RunID, m.Shard = j.RunID(), shard.Spec{Index: i, Count: shards}.String()
		if err := j.WriteMeta(m); err != nil {
			b.Fatal(err)
		}
		owned := 0
		for g := 0; g < windows; g++ {
			if shard.Assign(fmt.Sprintf("a%d|b%d", g*windowPairs, g*windowPairs*7%8000), shards) == i {
				writeWindow(j, owned, g)
				owned++
			}
		}
		if err := j.Done(runstore.RunDone{Windows: windows, Owned: owned}); err != nil {
			b.Fatal(err)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		shardBytes += dirBytes(shardDirs[i])
	}
	merged := filepath.Join(root, "merged")
	if _, err := shard.Merge(ctx, shardDirs, merged); err != nil {
		b.Fatal(err)
	}
	mergedBytes := dirBytes(merged)

	b.Run("Merge", func(b *testing.B) {
		out := b.TempDir()
		b.SetBytes(shardBytes + mergedBytes)
		b.ReportAllocs()
		syncs := 0
		for i := 0; i < b.N; i++ {
			sum, err := shard.Merge(ctx, shardDirs, filepath.Join(out, fmt.Sprint(i)))
			if err != nil {
				b.Fatal(err)
			}
			syncs += sum.Syncs
		}
		b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/op")
	})
	b.Run("OpenMerged", func(b *testing.B) {
		b.SetBytes(mergedBytes)
		b.ReportAllocs()
		syncs := 0
		for i := 0; i < b.N; i++ {
			j, err := runstore.OpenJournal(ctx, merged)
			if err != nil {
				b.Fatal(err)
			}
			if j.State().Windows() != windows {
				b.Fatalf("merged journal reopened with %d windows, want %d", j.State().Windows(), windows)
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			syncs += j.Syncs()
		}
		b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/op")
	})
	b.Run("AppendLive-2000", func(b *testing.B) {
		out := b.TempDir()
		b.ReportAllocs()
		syncs := 0
		for i := 0; i < b.N; i++ {
			dir := filepath.Join(out, fmt.Sprint(i))
			j, err := runstore.OpenJournal(ctx, dir)
			if err != nil {
				b.Fatal(err)
			}
			m := meta
			m.RunID = j.RunID()
			if err := j.WriteMeta(m); err != nil {
				b.Fatal(err)
			}
			for w := 0; w < windows; w++ { // 30 x (1 + 64) + meta + done = 1 952 records
				writeWindow(j, w, w)
			}
			if err := j.Done(runstore.RunDone{Windows: windows, Owned: windows}); err != nil {
				b.Fatal(err)
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			syncs += j.Syncs()
			if i == 0 {
				b.SetBytes(dirBytes(dir))
			}
		}
		b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/op")
	})
}

// BenchmarkAblationClustering measures the clustering substrate, DBSCAN
// (the paper's pick, used inside the framework), on the question
// features, reporting wall-clock cost and the cluster count it produces
// on the WA question geometry.
func BenchmarkAblationClustering(b *testing.B) {
	qs, _, _ := ablationWorkload(b, "AB", 400)
	ex := feature.NewLR()
	vecs := feature.ExtractAll(ex, qs)
	eps := cluster.EpsPercentile(vecs, feature.Euclidean, 0.05, 512, 1)
	b.Run("DBSCAN", func(b *testing.B) {
		var k int
		for i := 0; i < b.N; i++ {
			res := cluster.DBSCAN(vecs, feature.Euclidean, eps, 3)
			k = res.K
		}
		b.ReportMetric(float64(k), "clusters")
	})
}
