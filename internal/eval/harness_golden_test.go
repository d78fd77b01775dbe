package eval

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"testing"
)

const harnessGoldenPath = "testdata/harness_golden.json"

// harnessGolden pins every number the paper harness prints that
// ablation_golden.json does not: one entry per value, floats as bits,
// counts in decimal and findings' evidence as text.
type harnessGolden struct {
	// Arch is the GOARCH the values were recorded on (see designGolden).
	Arch   string            `json:"arch"`
	Values map[string]string `json:"values"`
}

// TestHarnessGolden holds Tables III, IV, VI and VII, the Llama2 check,
// Figures 6 and 7, the extended selection and the findings checklist to
// a recording on a small fixed workload. Record with
// go test ./internal/eval -run TestHarnessGolden -update.
func TestHarnessGolden(t *testing.T) {
	o := Options{Datasets: []string{"Beer", "IA"}, Seeds: []int64{1, 2}, QuestionCap: 64, PoolCap: 200}
	got := harnessGolden{Arch: runtime.GOARCH, Values: map[string]string{}}
	f := func(key string, v float64) { got.Values[key] = bits(v) }
	n := func(key string, v int) { got.Values[key] = strconv.Itoa(v) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	t3, err := RunTable3(o)
	must(err)
	for _, r := range t3 {
		k := "table3/" + r.Dataset + "/"
		f(k+"standard_f1_mean", r.StandardF1.Mean)
		f(k+"standard_f1_std", r.StandardF1.Std)
		f(k+"batch_f1_mean", r.BatchF1.Mean)
		f(k+"batch_f1_std", r.BatchF1.Std)
		f(k+"standard_api", r.StandardAPI)
		f(k+"batch_api", r.BatchAPI)
	}
	t4, err := RunTable4(o)
	must(err)
	for _, r := range t4 {
		for i, c := range r.Cells {
			k := "table4/" + r.Dataset + "/" + strconv.Itoa(i) + "/" + c.Batching.String() + "/" + c.Selection.String() + "/"
			f(k+"f1_mean", c.F1.Mean)
			f(k+"f1_std", c.F1.Std)
			f(k+"api", c.API)
			f(k+"label", c.Label)
		}
	}
	t6, err := RunTable6(o)
	must(err)
	for _, r := range t6 {
		n("table6/"+r.Dataset+"/models", len(r.ByModel))
		for m, c := range r.ByModel {
			f("table6/"+r.Dataset+"/"+m+"/f1", c.F1)
			f("table6/"+r.Dataset+"/"+m+"/api", c.API)
		}
	}
	llama, err := RunLlama2BatchCheck(o)
	must(err)
	f("llama2/unanswered", llama)
	t7, err := RunTable7(o)
	must(err)
	for _, r := range t7 {
		f("table7/"+r.Dataset+"/lr", r.LR)
		f("table7/"+r.Dataset+"/jac", r.JAC)
		f("table7/"+r.Dataset+"/sem", r.SEM)
	}
	f6, err := RunFigure6(o)
	must(err)
	for i, b := range f6 {
		k := "fig6/" + strconv.Itoa(i) + "/" + b.Dataset + "/" + b.Method + "/"
		f(k+"precision", b.Precision)
		f(k+"recall", b.Recall)
		f(k+"f1", b.F1)
	}
	f7, err := RunFigure7(o, nil)
	must(err)
	for i, s := range f7 {
		k := "fig7/" + strconv.Itoa(i) + "/" + s.Dataset + "/" + s.Method + "/"
		n(k+"labeled_pairs", s.LabeledPairs)
		n(k+"points", len(s.Points))
		for j, p := range s.Points {
			n(k+strconv.Itoa(j)+"/train_size", p.TrainSize)
			f(k+strconv.Itoa(j)+"/f1", p.F1)
		}
	}
	ext, err := RunExtendedSelection(o)
	must(err)
	for _, r := range ext {
		k := "extended/" + r.Dataset + "/"
		f(k+"cover_f1", r.CoverF1)
		n(k+"cover_labels", r.CoverLabels)
		f(k+"cover_api", r.CoverAPI)
		f(k+"votek_f1", r.VoteKF1)
		n(k+"votek_labels", r.VoteKLabels)
		f(k+"votek_api", r.VoteKAPI)
	}
	t5, err := RunTable5(o)
	must(err)
	paper := Paper{Table3: t3, Table4: t4, Figure7: f7, Table5: t5, Table6: t6, Llama2Unanswered: llama, Table7: t7}
	for _, fd := range CheckFindings(paper) {
		k := "findings/" + strconv.Itoa(fd.ID) + "/"
		got.Values[k+"held"] = strconv.FormatBool(fd.Held)
		got.Values[k+"evidence"] = fd.Evidence
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(harnessGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(harnessGoldenPath)
	if err != nil {
		t.Fatalf("%v (record with go test -run TestHarnessGolden -update)", err)
	}
	var want harnessGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", harnessGoldenPath, err)
	}
	if want.Arch != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s", want.Arch, runtime.GOARCH)
	}
	if len(got.Values) != len(want.Values) {
		t.Errorf("%d values produced, golden has %d", len(got.Values), len(want.Values))
	}
	for key, w := range want.Values {
		if g, ok := got.Values[key]; !ok {
			t.Errorf("%s: in the golden file but not produced", key)
		} else if g != w {
			t.Errorf("%s: got %s, want %s", key, g, w)
		}
	}
}
