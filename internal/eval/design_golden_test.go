package eval

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"batcher/internal/core"
	"batcher/internal/feature"
	"batcher/internal/llm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/design_golden.json from the code under test")

const designGoldenPath = "testdata/design_golden.json"

// designCell pins everything one design point leaves behind: the
// predictions, the bill and the selection's size. Dollars are float
// bits.
type designCell struct {
	PredSHA256      string `json:"pred_sha256"`
	Calls           int    `json:"calls"`
	InputTokens     int    `json:"input_tokens"`
	OutputTokens    int    `json:"output_tokens"`
	APIDollarBits   string `json:"api_dollar_bits"`
	LabelDollarBits string `json:"label_dollar_bits"`
	LabeledPairs    int    `json:"labeled_pairs"`
	TrimmedDemos    int    `json:"trimmed_demos"`
}

type designGolden struct {
	// Arch is the GOARCH the values were recorded on; floating-point
	// contraction differs between architectures, so the pin binds only
	// where it was taken.
	Arch  string                `json:"arch"`
	Cells map[string]designCell `json:"cells"`
}

// designPoint is one configuration of the paper's design space.
type designPoint struct {
	name    string
	cfg     core.Config
	cascade bool // answer through a two-tier backend
}

// designPoints lists Table IV's twelve cells, vote-k under each
// batching, standard prompting (Table III), the JAC and SEM extractors
// (Table VII), GPT-4 and Llama2 (Table VI; Llama2 refuses batch
// prompts), JSON answers and the cascade.
func designPoints() []designPoint {
	var pts []designPoint
	for _, bs := range core.BatchStrategies() {
		for _, ss := range append(core.SelectStrategies(), core.VoteKSelection) {
			pts = append(pts, designPoint{name: bs.String() + "/" + ss.String(), cfg: core.Config{Batching: bs, Selection: ss}})
		}
	}
	best := func(name string, apply func(*core.Config)) designPoint {
		cfg := defaultBest()
		apply(&cfg)
		return designPoint{name: name, cfg: cfg}
	}
	cascade := best("cascade", func(c *core.Config) {
		c.Model, c.CheapModel, c.EscalateMargin = llm.GPT4, llm.GPT35Turbo0301, 0.02
	})
	cascade.cascade = true
	return append(pts,
		designPoint{name: "standard", cfg: core.Config{BatchSize: 1, Selection: core.FixedSelection}},
		best("jac", func(c *core.Config) { c.Extractor = feature.NewJAC() }),
		best("sem", func(c *core.Config) { c.Extractor = feature.NewSEM() }),
		best("gpt-4", func(c *core.Config) { c.Model = llm.GPT4 }),
		best("llama2", func(c *core.Config) { c.Model = llm.Llama2Chat70B }),
		best("json", func(c *core.Config) { c.JSONAnswers = true }),
		cascade,
	)
}

// runDesignPoint resolves a workload's questions over its separate pool
// at seed 1 and digests the result.
func runDesignPoint(t *testing.T, w *workload, pt designPoint) designCell {
	t.Helper()
	cfg := pt.cfg
	cfg.Seed = 1
	var client llm.Client = llm.NewSimulated(w.oracle, 1)
	if pt.cascade {
		client = llm.NewTiered(llm.NewSimulated(w.oracle, 1), client)
	}
	res, err := core.NewFromConfig(client, cfg).Resolve(context.Background(), w.questions, w.pool)
	if err != nil {
		t.Fatalf("%s/%s: %v", w.name, pt.name, err)
	}
	h := sha256.New()
	for _, p := range res.Pred {
		fmt.Fprintf(h, "%d\n", p)
	}
	return designCell{
		PredSHA256:      hex.EncodeToString(h.Sum(nil)),
		Calls:           res.Ledger.Calls(),
		InputTokens:     res.Ledger.InputTokens(),
		OutputTokens:    res.Ledger.OutputTokens(),
		APIDollarBits:   fmt.Sprintf("%016x", math.Float64bits(res.Ledger.API())),
		LabelDollarBits: fmt.Sprintf("%016x", math.Float64bits(res.Ledger.Labeling())),
		LabeledPairs:    res.Ledger.LabeledPairs(),
		TrimmedDemos:    res.TrimmedDemos,
	}
}

// TestDesignSpaceGolden holds every design point the paper evaluates to
// a recording: predictions, bill and selection size must come out
// exactly as recorded. WA's 600 questions exceed DistanceSampleCap, so
// the sampled percentiles and the buffer-free sweep are pinned along
// with the in-buffer path the two small datasets take; every cell's pool
// is the training split, not the question set. Record with
// go test ./internal/eval -run TestDesignSpaceGolden -update.
func TestDesignSpaceGolden(t *testing.T) {
	workloads := []struct {
		name          string
		qcap, poolCap int
	}{{"WA", 600, 600}, {"IA", 0, 0}, {"Beer", 0, 0}}
	got := designGolden{Arch: runtime.GOARCH, Cells: map[string]designCell{}}
	for _, wl := range workloads {
		w, err := loadWorkload(wl.name, Options{QuestionCap: wl.qcap, PoolCap: wl.poolCap})
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range designPoints() {
			got.Cells[wl.name+"/"+pt.name] = runDesignPoint(t, w, pt)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(designGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(designGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(designGoldenPath)
	if err != nil {
		t.Fatalf("%v (record with go test -run TestDesignSpaceGolden -update)", err)
	}
	var want designGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", designGoldenPath, err)
	}
	if want.Arch != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s", want.Arch, runtime.GOARCH)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Errorf("%d cells run, golden has %d", len(got.Cells), len(want.Cells))
	}
	for name, w := range want.Cells {
		g, ok := got.Cells[name]
		if !ok {
			t.Errorf("%s: in the golden file but not run", name)
		} else if g != w {
			t.Errorf("%s:\n got  %s\n want %s", name, cellString(g), cellString(w))
		}
	}
}

func cellString(c designCell) string {
	data, _ := json.Marshal(c) // a struct of strings and ints cannot fail to marshal
	return strings.ReplaceAll(string(data), `"`, "")
}
