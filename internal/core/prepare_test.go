package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
)

// TestPrepareAliasedPoolMatchesClonedPool: a self-pooled window passes
// one slice as questions and pool, and Prepare then extracts it once and
// reads clustering and covering off one shared distance sweep. The plan
// must be the one a separately extracted copy of the pool yields through
// the rectangular cover build: same batches, per-batch demonstrations,
// annotated set and margins — with the calibration unsampled (one shared
// distance buffer) and sampled (DistanceSampleCap below n: two seeded
// samples), under both clustering strategies. Every variant is tiered
// (CheapModel set), since only a tiered run computes margins.
func TestPrepareAliasedPoolMatchesClonedPool(t *testing.T) {
	window, _ := testWorkload(t, "Beer", 96)
	type variant struct {
		ex        feature.Extractor
		batching  BatchStrategy
		sel       SelectStrategy
		sampleCap int
	}
	var variants []variant
	for _, ex := range []feature.Extractor{feature.NewLR(), feature.NewJAC()} {
		for _, sel := range []SelectStrategy{CoveringSelection, TopKQuestion, VoteKSelection} {
			variants = append(variants, variant{ex, DiversityBatching, sel, 0})
		}
		variants = append(variants,
			variant{ex, DiversityBatching, CoveringSelection, 40},
			variant{ex, SimilarityBatching, CoveringSelection, 0},
			variant{ex, SimilarityBatching, CoveringSelection, 40},
			variant{ex, RandomBatching, CoveringSelection, 0})
	}
	for _, v := range variants {
		f := NewFromConfig(llm.NewSimulated(nil, 1), Config{
			Batching: v.batching, Selection: v.sel, Extractor: v.ex, Seed: 1, DistanceSampleCap: v.sampleCap,
			Model: llm.GPT4, CheapModel: llm.GPT35Turbo0301,
		})
		aliased, err := f.Prepare(context.Background(), window, window)
		if err != nil {
			t.Fatal(err)
		}
		cloned, err := f.Prepare(context.Background(), window, append([]entity.Pair(nil), window...))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/%s/%s/cap=%d", v.ex.Name(), v.batching, v.sel, v.sampleCap)
		if len(aliased.batches) == 0 || len(aliased.sel.labeled) == 0 || len(aliased.margins) != len(aliased.batches) {
			t.Fatalf("%s: empty plan (%d batches, %d labeled, %d margins)",
				name, len(aliased.batches), len(aliased.sel.labeled), len(aliased.margins))
		}
		if !reflect.DeepEqual(aliased.batches, cloned.batches) {
			t.Errorf("%s: batches differ", name)
		}
		if !reflect.DeepEqual(aliased.sel.perBatch, cloned.sel.perBatch) {
			t.Errorf("%s: per-batch demonstrations differ", name)
		}
		if !reflect.DeepEqual(aliased.sel.labeled, cloned.sel.labeled) {
			t.Errorf("%s: labeled set differs: %v vs %v", name, aliased.sel.labeled, cloned.sel.labeled)
		}
		if !reflect.DeepEqual(aliased.margins, cloned.margins) {
			t.Errorf("%s: margins differ", name)
		}
	}
}

// TestPrepareSelfPooledDistanceBudget pins what a self-pooled Prepare may
// spend on Config.Distance. A window of at most DistanceSampleCap
// questions is its own calibration sample: one call per unordered pair
// of its U distinct vectors (diagonal included) serves both percentiles
// and both relations, U(U+1)/2 calls — whatever the batching and
// selection, as long as one of them reads the distances. The WA window
// is all distinct (n(n+1)/2); the token-blocked candidates of
// datagen.PipelineBenchSpec, the benchmark's geometry, are
// duplicate-rich. A larger window adds the two percentile calibrations,
// each one call per unordered pair of its seeded sample's distinct
// vectors, and its sweep calls Distance once per unordered pair of the
// window's U distinct vectors, U(U+1)/2 times. Stage-2 batch covering
// reads bits. A tiered run (CheapModel set) adds exactly the vote
// margins' |labeled| calls per question; a single-model run makes none
// of them.
func TestPrepareSelfPooledDistanceBudget(t *testing.T) {
	var calls atomic.Int64
	counting := func(a, b feature.Vector) float64 { calls.Add(1); return feature.Euclidean(a, b) }
	prepare := func(t *testing.T, cfg Config, window, pool []entity.Pair) (*Framework, *Prepared, int64) {
		t.Helper()
		cfg.Seed, cfg.Distance = 1, counting
		f := NewFromConfig(llm.NewSimulated(nil, 1), cfg)
		calls.Store(0)
		prep, err := f.Prepare(context.Background(), window, pool)
		if err != nil {
			t.Fatal(err)
		}
		return f, prep, calls.Load()
	}
	wa512, _ := testWorkload(t, "WA", 512)
	wa1500, _ := testWorkload(t, "WA", 1500)
	for _, w := range []struct {
		name   string
		window []entity.Pair
	}{{"WA", wa512}, {"WA", wa1500}, {"pipebench", pipeBenchWindow(t, 512)}} {
		window, n := w.window, len(w.window)
		f, prep, selfPooled := prepare(t, Config{Batching: DiversityBatching, Selection: CoveringSelection}, window, window)
		cfg := f.Config()
		vecs := feature.ExtractAll(cfg.Extractor, window)
		u := distinctVectors(vecs)
		name := fmt.Sprintf("%s n=%d U=%d", w.name, n, u)
		switch {
		case w.name == "WA" && n <= cfg.DistanceSampleCap && u != n:
			t.Fatalf("%s: want an all-distinct window", name)
		case w.name == "pipebench" && 2*u > n:
			t.Fatalf("%s: want a duplicate-rich window, at most n/2 distinct", name)
		}
		if n <= cfg.DistanceSampleCap {
			if want := u * (u + 1) / 2; selfPooled != int64(want) {
				t.Errorf("%s: %d Distance calls, want U(U+1)/2 = %d", name, selfPooled, want)
			}
		} else {
			epsSample, coverSample := calibrationSamples(cfg, vecs)
			if want := u*(u+1)/2 + classPairs(epsSample) + classPairs(coverSample); selfPooled != int64(want) {
				t.Errorf("%s: %d Distance calls, want U(U+1)/2 + the two samples' class pairs (%d + %d) = %d",
					name, selfPooled, classPairs(epsSample), classPairs(coverSample), want)
			}
		}
		// The same window on a tiered run pays for the margins on top:
		// one call per question and annotated demonstration.
		tieredCfg := cfg
		tieredCfg.Model, tieredCfg.CheapModel = llm.GPT4, llm.GPT35Turbo0301
		_, tiered, tieredCalls := prepare(t, tieredCfg, window, window)
		labeled := len(tiered.LabeledPool())
		if labeled != len(prep.LabeledPool()) {
			t.Fatalf("%s: tiered run labeled %d, single-model %d", name, labeled, len(prep.LabeledPool()))
		}
		if tieredCalls != selfPooled+int64(labeled*n) {
			t.Errorf("%s: tiered run made %d Distance calls, single-model %d: want exactly |labeled|·n = %d more",
				name, tieredCalls, selfPooled, labeled*n)
		}
		// A pool that is not the question slice pays for its cover
		// relation once, n·n cells through setcover.Rows; the sweep
		// still measures the questions for clustering, and stage 2
		// reads the rows.
		_, _, cloned := prepare(t, cfg, window, append([]entity.Pair(nil), window...))
		if cloned != selfPooled+int64(n*n) {
			t.Errorf("%s: cloned pool made %d Distance calls, self-pooled %d: want exactly n^2 = %d more",
				name, cloned, selfPooled, n*n)
		}
		// One relation only: the calibration buffer still feeds the
		// sweep.
		if n > cfg.DistanceSampleCap {
			continue
		}
		for rel, cfg := range map[string]Config{
			"clustering only": {Batching: DiversityBatching, Selection: FixedSelection},
			"covering only":   {Batching: RandomBatching, Selection: CoveringSelection},
		} {
			if _, _, got := prepare(t, cfg, window, window); got != int64(u*(u+1)/2) {
				t.Errorf("%s, %s: %d Distance calls, want U(U+1)/2 = %d", name, rel, got, u*(u+1)/2)
			}
		}
	}
}

// pipeBenchWindow returns the first n token-blocked candidates of the
// datagen.PipelineBenchSpec tables the window benchmarks use.
func pipeBenchWindow(t *testing.T, n int) []entity.Pair {
	t.Helper()
	d, err := datagen.GenerateCustom(datagen.PipelineBenchSpec(4000), 1)
	if err != nil {
		t.Fatal(err)
	}
	var window []entity.Pair
	for p, err := range (&blocking.TokenBlocker{Attr: "title", MinShared: 2}).BlockStream(context.Background(), d.TableA, d.TableB) {
		if err != nil {
			t.Fatal(err)
		}
		if window = append(window, p); len(window) == n {
			return window
		}
	}
	t.Fatalf("blocking produced %d candidates, need %d", len(window), n)
	return nil
}

// calibrationSamples are the two seeded samples a window above
// DistanceSampleCap calibrates on: cluster.EpsPercentile's index
// shuffle at Seed for eps, and coverThreshold's permutation at Seed+2
// for t.
func calibrationSamples(cfg Config, vecs []feature.Vector) (eps, cover []feature.Vector) {
	idx := make([]int, len(vecs))
	for i := range idx {
		idx[i] = i
	}
	rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	perm := rand.New(rand.NewSource(cfg.Seed + 2)).Perm(len(vecs))
	for i := 0; i < cfg.DistanceSampleCap; i++ {
		eps = append(eps, vecs[idx[i]])
		cover = append(cover, vecs[perm[i]])
	}
	return eps, cover
}

// classPairs is U(U+1)/2 for the U distinct values among vs: what
// measuring them once per unordered pair of values costs.
func classPairs(vs []feature.Vector) int {
	u := distinctVectors(vs)
	return u * (u + 1) / 2
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

// countingExtractor counts Extract calls on the string path.
type countingExtractor struct {
	feature.Extractor
	calls atomic.Int64
}

func (c *countingExtractor) Extract(dst feature.Vector, p entity.Pair) feature.Vector {
	c.calls.Add(1)
	return c.Extractor.Extract(dst, p)
}

func TestPrepareExtractsSelfPooledWindowOnce(t *testing.T) {
	window, _ := testWorkload(t, "Beer", 64)
	for _, tc := range []struct {
		name string
		pool []entity.Pair
		want int64
	}{
		{"aliased", window, int64(len(window))},
		{"cloned", append([]entity.Pair(nil), window...), 2 * int64(len(window))},
		{"prefix", window[:len(window)/2], int64(len(window) + len(window)/2)},
	} {
		ex := &countingExtractor{Extractor: feature.NewLR()}
		f := NewFromConfig(llm.NewSimulated(nil, 1), Config{Selection: CoveringSelection, Extractor: ex, Seed: 1})
		if _, err := f.Prepare(context.Background(), window, tc.pool); err != nil {
			t.Fatal(err)
		}
		if got := ex.calls.Load(); got != tc.want {
			t.Errorf("%s pool: %d Extract calls, want %d", tc.name, got, tc.want)
		}
	}
}
