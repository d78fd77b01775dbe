package eval

import (
	"slices"
	"strings"
	"testing"

	"batcher/internal/core"
)

// fastOpts keeps experiment tests quick: two small datasets, one seed,
// capped questions.
func fastOpts() Options {
	return Options{
		Datasets:    []string{"IA", "Beer"},
		Seeds:       []int64{1},
		QuestionCap: 64,
		PoolCap:     200,
	}
}

func TestRunTable3ShapeHolds(t *testing.T) {
	rows, err := RunTable3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BatchAPI <= 0 || r.StandardAPI <= 0 {
			t.Errorf("%s: zero API cost", r.Dataset)
		}
		saving := r.StandardAPI / r.BatchAPI
		if saving < 3 || saving > 9 {
			t.Errorf("%s: cost saving %.1fx outside the paper's 4x-7x band (±1)", r.Dataset, saving)
		}
		if r.BatchF1.Mean < 50 {
			t.Errorf("%s: batch F1 %.1f implausible", r.Dataset, r.BatchF1.Mean)
		}
	}
}

func TestFormatTable3(t *testing.T) {
	rows := []Table3Row{{Dataset: "IA", StandardAPI: 0.4, BatchAPI: 0.1}}
	var sb strings.Builder
	FormatTable3(&sb, rows)
	out := sb.String()
	if !strings.Contains(out, "IA") || !strings.Contains(out, "4.0x") {
		t.Errorf("FormatTable3 = %q", out)
	}
}

func TestRunTable4GridComplete(t *testing.T) {
	o := fastOpts()
	o.Datasets = []string{"Beer"}
	rows, err := RunTable4(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if len(r.Cells) != 12 {
		t.Fatalf("design points = %d, want 3x4", len(r.Cells))
	}
	// Covering must be cheaper on labeling than topk strategies under
	// every batching choice.
	for _, bs := range core.BatchStrategies() {
		cover := r.Cell(bs, core.CoveringSelection)
		topkq := r.Cell(bs, core.TopKQuestion)
		if cover.Label >= topkq.Label {
			t.Errorf("%v: cover label $%.2f not below topk-question $%.2f", bs, cover.Label, topkq.Label)
		}
	}
	best := r.Best()
	if best.F1.Mean <= 0 {
		t.Error("Best() returned empty cell")
	}
	var sb strings.Builder
	FormatTable4(&sb, rows)
	if !strings.Contains(sb.String(), "cover") {
		t.Error("FormatTable4 missing cover column")
	}
}

func TestRunTable5CostAdvantage(t *testing.T) {
	o := fastOpts()
	o.Datasets = []string{"IA"}
	rows, err := RunTable5(o)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.BatchAPI >= r.ManualAPI {
		t.Errorf("batch API $%.3f should undercut manual $%.3f", r.BatchAPI, r.ManualAPI)
	}
	// Paper: batch prompting needs ~20% of ManualPrompt's API budget.
	if ratio := r.BatchAPI / r.ManualAPI; ratio > 0.5 {
		t.Errorf("cost ratio %.2f, want well under 0.5", ratio)
	}
	if r.BatchF1 < r.ManualF1-25 {
		t.Errorf("batch F1 %.1f not comparable to manual %.1f", r.BatchF1, r.ManualF1)
	}
	var sb strings.Builder
	FormatTable5(&sb, rows)
	if !strings.Contains(sb.String(), "IA") {
		t.Error("FormatTable5 missing dataset")
	}
}

func TestRunTable5DefaultsToPaperSubset(t *testing.T) {
	o := Options{Seeds: []int64{1}, QuestionCap: 8, PoolCap: 50}
	rows, err := RunTable5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table5Datasets) {
		t.Fatalf("rows = %d, want %d (AB excluded as in the paper)", len(rows), len(Table5Datasets))
	}
	for _, r := range rows {
		if r.Dataset == "AB" {
			t.Error("AB should be excluded from Table V")
		}
	}
	// An explicit list runs as given, even when it names all eight.
	o.Datasets = allEight
	rows, err = RunTable5(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowDatasets(rows, func(r Table5Row) string { return r.Dataset }); !slices.Equal(got, allEight) {
		t.Errorf("explicit datasets ran %v, want %v", got, allEight)
	}
}

// allEight names every dataset, in an order unlike datagen.Names().
var allEight = []string{"WA", "AB", "AG", "DS", "DA", "FZ", "IA", "Beer"}

// rowDatasets lists each row's dataset, dropping adjacent repeats.
func rowDatasets[R any](rows []R, dataset func(R) string) []string {
	var out []string
	for _, r := range rows {
		if d := dataset(r); len(out) == 0 || out[len(out)-1] != d {
			out = append(out, d)
		}
	}
	return out
}

func TestRunTable6GPT4CostsTenX(t *testing.T) {
	o := fastOpts()
	o.Datasets = []string{"Beer"}
	rows, err := RunTable6(o)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	g35 := r.ByModel["gpt-3.5-turbo-0301"]
	g4 := r.ByModel["gpt-4-1106-preview"]
	if g4.API < 8*g35.API {
		t.Errorf("GPT-4 $%.4f should be ~10x GPT-3.5 $%.4f", g4.API, g35.API)
	}
	g3506 := r.ByModel["gpt-3.5-turbo-0613"]
	if g3506.F1 > g35.F1+10 {
		t.Errorf("0613 (%.1f) should not clearly beat 0301 (%.1f)", g3506.F1, g35.F1)
	}
	var sb strings.Builder
	FormatTable6(&sb, rows)
	if !strings.Contains(sb.String(), "gpt-4") {
		t.Error("FormatTable6 missing model header")
	}
}

func TestRunLlama2BatchCheck(t *testing.T) {
	o := fastOpts()
	o.Datasets = []string{"Beer"}
	frac, err := RunLlama2BatchCheck(o)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.9 {
		t.Errorf("Llama2 unanswered fraction = %.2f, want ~1 (paper: fails batching)", frac)
	}
}

func TestRunTable7StructureBeatsSemantic(t *testing.T) {
	// The extractor effect is only visible on datasets with real
	// ambiguity; WA is the canonical case. The claim under test is the
	// paper's Finding 6: structure-aware features (LR) beat the
	// semantics-based embedding.
	o := Options{Datasets: []string{"WA"}, Seeds: []int64{1, 2}, QuestionCap: 400, PoolCap: 1500}
	rows, err := RunTable7(o)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.LR <= r.SEM-1 {
		t.Errorf("BATCHER-LR (%.1f) should beat BATCHER-SEM (%.1f) on WA", r.LR, r.SEM)
	}
	var sb strings.Builder
	FormatTable7(&sb, rows)
	if !strings.Contains(sb.String(), "BATCHER-LR") {
		t.Error("FormatTable7 missing header")
	}
}

func TestRunFigure6PrecisionMechanism(t *testing.T) {
	o := Options{Datasets: []string{"WA"}, Seeds: []int64{1}, QuestionCap: 300, PoolCap: 400}
	bars, err := RunFigure6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 2 {
		t.Fatalf("bars = %d", len(bars))
	}
	std, batch := bars[0], bars[1]
	if std.Method != "Standard" || batch.Method != "Batch" {
		t.Fatalf("order = %s/%s", std.Method, batch.Method)
	}
	if batch.Precision <= std.Precision {
		t.Errorf("batch precision %.1f should beat standard %.1f (paper's Figure 6 mechanism)",
			batch.Precision, std.Precision)
	}
	if batch.Recall < std.Recall-15 {
		t.Errorf("recall should stay comparable: %.1f vs %.1f", batch.Recall, std.Recall)
	}
	var sb strings.Builder
	FormatFigure6(&sb, bars)
	if !strings.Contains(sb.String(), "Precision") {
		t.Error("FormatFigure6 missing header")
	}
	// Unnamed datasets default to the paper's pair; an explicit list
	// runs as given, even when it names all eight.
	for _, tc := range []struct{ datasets, want []string }{
		{nil, Figure6Datasets},
		{allEight, allEight},
	} {
		bars, err := RunFigure6(Options{Datasets: tc.datasets, Seeds: []int64{1}, QuestionCap: 8, PoolCap: 50})
		if err != nil {
			t.Fatal(err)
		}
		if got := rowDatasets(bars, func(b Figure6Bar) string { return b.Dataset }); !slices.Equal(got, tc.want) {
			t.Errorf("datasets %v ran %v, want %v", tc.datasets, got, tc.want)
		}
	}
}

func TestRunFigure7Crossover(t *testing.T) {
	o := Options{Datasets: []string{"IA"}, Seeds: []int64{1}, QuestionCap: 100, PoolCap: 300}
	series, err := RunFigure7(o, []int{20, 60, 200})
	if err != nil {
		t.Fatal(err)
	}
	// 3 PLMs + BatchER.
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	var batchER Figure7Series
	found := false
	for _, s := range series {
		if s.Method == "BatchER" {
			batchER = s
			found = true
		}
	}
	if !found {
		t.Fatal("BatchER series missing")
	}
	// Flat line: all points identical F1.
	for _, p := range batchER.Points {
		if p.F1 != batchER.Points[0].F1 {
			t.Error("BatchER line should be flat")
		}
	}
	if batchER.LabeledPairs <= 0 {
		t.Error("BatchER labeled-pairs need missing")
	}
	// At tiny training sizes, PLMs must trail BatchER (the Figure 7
	// message).
	for _, s := range series {
		if s.Method == "BatchER" {
			continue
		}
		if s.Points[0].F1 >= batchER.Points[0].F1 {
			t.Errorf("%s at n=20 (%.1f) should trail BatchER (%.1f)",
				s.Method, s.Points[0].F1, batchER.Points[0].F1)
		}
	}
	var sb strings.Builder
	FormatFigure7(&sb, series)
	if !strings.Contains(sb.String(), "BatchER") {
		t.Error("FormatFigure7 missing series")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Datasets) != 8 {
		t.Errorf("default datasets = %v", o.Datasets)
	}
	if len(o.Seeds) != 3 {
		t.Errorf("default seeds = %v (paper runs three)", o.Seeds)
	}
}

func TestLoadWorkloadCaps(t *testing.T) {
	w, err := loadWorkload("Beer", Options{QuestionCap: 10, PoolCap: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.questions) != 10 || len(w.pool) != 20 {
		t.Errorf("caps not applied: %d/%d", len(w.questions), len(w.pool))
	}
	if len(w.oracle) == 0 {
		t.Error("oracle empty")
	}
}

func TestLoadWorkloadUnknown(t *testing.T) {
	if _, err := loadWorkload("XX", Options{}); err == nil {
		t.Error("unknown dataset should fail")
	}
}
