package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
)

const ablationGoldenPath = "testdata/ablation_golden.json"

// ablationCell pins one swept setting or one Table V method: F1 and
// dollars as float bits, plus the labelled-pair count where the runner
// reports one.
type ablationCell struct {
	F1Bits          string `json:"f1_bits"`
	APIDollarBits   string `json:"api_dollar_bits"`
	LabelDollarBits string `json:"label_dollar_bits,omitempty"`
	Labels          int    `json:"labels,omitempty"`
}

type ablationGolden struct {
	// Arch is the GOARCH the values were recorded on (see designGolden).
	Arch  string                  `json:"arch"`
	Cells map[string]ablationCell `json:"cells"`
}

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// TestAblationTable5Golden holds the four ablation sweeps and Table V
// to a recording on a small fixed workload. Record with
// go test ./internal/eval -run TestAblationTable5Golden -update.
func TestAblationTable5Golden(t *testing.T) {
	o := Options{Datasets: []string{"Beer", "IA"}, Seeds: []int64{1}, QuestionCap: 64, PoolCap: 200}
	got := ablationGolden{Arch: runtime.GOARCH, Cells: map[string]ablationCell{}}
	addSweep := func(res []AblationResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			for _, p := range r.Points {
				got.Cells[r.Name+"/"+r.Dataset+"/"+p.Setting] = ablationCell{
					F1Bits: bits(p.F1), APIDollarBits: bits(p.API),
					LabelDollarBits: bits(p.Label), Labels: p.Labels,
				}
			}
		}
	}
	addSweep(RunAblationCoverThreshold(o, nil))
	addSweep(RunAblationBatchSize(o, nil))
	addSweep(RunAblationDistance(o))
	addSweep(RunAblationParallelism(o))
	rows, err := RunTable5(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		got.Cells["table5/"+r.Dataset+"/manual"] = ablationCell{F1Bits: bits(r.ManualF1), APIDollarBits: bits(r.ManualAPI)}
		got.Cells["table5/"+r.Dataset+"/batch"] = ablationCell{F1Bits: bits(r.BatchF1), APIDollarBits: bits(r.BatchAPI)}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ablationGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(ablationGoldenPath)
	if err != nil {
		t.Fatalf("%v (record with go test -run TestAblationTable5Golden -update)", err)
	}
	var want ablationGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", ablationGoldenPath, err)
	}
	if want.Arch != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s", want.Arch, runtime.GOARCH)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Errorf("%d cells run, golden has %d", len(got.Cells), len(want.Cells))
	}
	for name, w := range want.Cells {
		if g, ok := got.Cells[name]; !ok {
			t.Errorf("%s: in the golden file but not run", name)
		} else if g != w {
			t.Errorf("%s:\n got  %+v\n want %+v", name, g, w)
		}
	}
}
