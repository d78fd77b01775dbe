package eval

import (
	"slices"
	"strings"
	"testing"
)

func TestAblationCoverThresholdTradeoff(t *testing.T) {
	o := Options{Datasets: []string{"WA"}, Seeds: []int64{1}, QuestionCap: 200, PoolCap: 800}
	res, err := RunAblationCoverThreshold(o, []float64{0.02, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Tighter threshold must label more demonstrations.
	if pts[0].Labels <= pts[1].Labels {
		t.Errorf("2nd pct labeled %d, 30th pct %d; tighter should cost more labels",
			pts[0].Labels, pts[1].Labels)
	}
}

func TestAblationBatchSizeCostMonotone(t *testing.T) {
	o := Options{Datasets: []string{"IA"}, Seeds: []int64{1}, QuestionCap: 96, PoolCap: 300}
	res, err := RunAblationBatchSize(o, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if pts[1].API >= pts[0].API {
		t.Errorf("batch size 8 API $%.4f should undercut size 1 $%.4f", pts[1].API, pts[0].API)
	}
}

// Unnamed datasets default to the representative pair; an explicit list
// runs as given, whatever its length.
func TestAblationDatasets(t *testing.T) {
	for _, tc := range []struct{ datasets, want []string }{
		{nil, AblationDatasets},
		{[]string{"Beer", "IA", "FZ"}, []string{"Beer", "IA", "FZ"}},
	} {
		res, err := RunAblationDistance(Options{Datasets: tc.datasets, Seeds: []int64{1}, QuestionCap: 8, PoolCap: 50})
		if err != nil {
			t.Fatal(err)
		}
		if got := rowDatasets(res, func(r AblationResult) string { return r.Dataset }); !slices.Equal(got, tc.want) {
			t.Errorf("datasets %v ran %v, want %v", tc.datasets, got, tc.want)
		}
	}
}

func TestAblationDistanceRuns(t *testing.T) {
	o := Options{Datasets: []string{"Beer"}, Seeds: []int64{1}, QuestionCap: 64, PoolCap: 200}
	res, err := RunAblationDistance(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Points) != 2 {
		t.Fatalf("points = %v", res[0].Points)
	}
	for _, p := range res[0].Points {
		if p.F1 <= 0 {
			t.Errorf("%s F1 = %v", p.Setting, p.F1)
		}
	}
}

func TestAblationParallelismIdentical(t *testing.T) {
	o := Options{Datasets: []string{"Beer"}, Seeds: []int64{1}, QuestionCap: 64, PoolCap: 200}
	res, err := RunAblationParallelism(o)
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if pts[0].F1 != pts[1].F1 || pts[0].API != pts[1].API {
		t.Errorf("parallel run differs from sequential: %+v", pts)
	}
}

func TestPctNameOrdinals(t *testing.T) {
	for p, want := range map[float64]string{
		0.01: "t=1st pct", 0.02: "t=2nd pct", 0.03: "t=3rd pct", 0.08: "t=8th pct", 0.11: "t=11th pct",
		0.12: "t=12th pct", 0.13: "t=13th pct", 0.21: "t=21st pct", 0.25: "t=25th pct", 0.3: "t=30th pct",
	} {
		if got := pctName(p); got != want {
			t.Errorf("pctName(%v) = %q, want %q", p, got, want)
		}
	}
}

func TestFormatAblations(t *testing.T) {
	var sb strings.Builder
	FormatAblations(&sb, []AblationResult{{
		Dataset: "X", Name: "demo",
		Points: []AblationPoint{{Setting: "s", F1: 50}},
	}})
	if !strings.Contains(sb.String(), "Ablation demo on X") {
		t.Errorf("output = %q", sb.String())
	}
}

func TestCheckFindings(t *testing.T) {
	// Reduced but diverse workload: one easy, one hard dataset.
	o := Options{Datasets: []string{"WA", "IA"}, Seeds: []int64{1, 2}, QuestionCap: 160, PoolCap: 600}
	var p Paper
	var err error
	for _, run := range []func(){
		func() { p.Table3, err = RunTable3(o) },
		func() { p.Table4, err = RunTable4(o) },
		func() { p.Figure7, err = RunFigure7(o, []int{50, 400}) }, // finding 3 reads n = 50
		func() { p.Table5, err = RunTable5(o) },
		func() { p.Table6, err = RunTable6(o) },
		func() { p.Llama2Unanswered, err = RunLlama2BatchCheck(o) },
		func() { p.Table7, err = RunTable7(o) },
	} {
		if run(); err != nil {
			t.Fatal(err)
		}
	}
	findings := CheckFindings(p)
	if len(findings) != 6 {
		t.Fatalf("findings = %d, want 6", len(findings))
	}
	held := 0
	for _, f := range findings {
		if f.Held {
			held++
		}
		if f.Evidence == "" || f.Claim == "" {
			t.Errorf("finding %d missing text: %+v", f.ID, f)
		}
	}
	// On reduced workloads at least five of six findings must hold; log
	// details for the record.
	var sb strings.Builder
	FormatFindings(&sb, findings)
	t.Log("\n" + sb.String())
	if held < 5 {
		t.Errorf("only %d/6 findings held", held)
	}
}
