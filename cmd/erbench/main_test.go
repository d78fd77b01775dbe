package main

import (
	"os"
	"reflect"
	"testing"

	"batcher/internal/eval"
)

func TestCheckExperiment(t *testing.T) {
	for _, name := range expNames() {
		if err := checkExperiment(name); err != nil {
			t.Errorf("checkExperiment(%q) = %v, want accepted", name, err)
		}
	}
	for _, name := range []string{"", "Table7", "table7 ", "table3,table4"} {
		if checkExperiment(name) == nil {
			t.Errorf("checkExperiment(%q) accepted, want rejected", name)
		}
	}
	const want = `unknown experiment "tabel7" (want one of: all, table3, fig6, table4, fig7, table5, table6, table7, ablations, extended, findings, cascade)`
	if err := checkExperiment("tabel7"); err == nil || err.Error() != want {
		t.Errorf("checkExperiment(\"tabel7\") = %v, want %s", err, want)
	}
}

func TestCheckDatasets(t *testing.T) {
	for _, list := range []string{"", "Beer", "Beer, IA", " WA ,AB,AG,DS,DA,FZ,IA,Beer "} {
		if err := checkDatasets(splitList(list)); err != nil {
			t.Errorf("-datasets %q: %v, want accepted", list, err)
		}
	}
	for _, list := range []string{"beer", "Beer,", "Beer,,IA", "Beer;IA"} {
		if checkDatasets(splitList(list)) == nil {
			t.Errorf("-datasets %q accepted, want rejected", list)
		}
	}
	const want = `unknown dataset "XY" (want one of: WA, AB, AG, DS, DA, FZ, IA, Beer)`
	if err := checkDatasets(splitList("Beer, XY")); err == nil || err.Error() != want {
		t.Errorf("-datasets \"Beer, XY\": %v, want %s", err, want)
	}
}

// TestFindingsRunsWhatItGrades runs the entries -exp findings selects
// on one tiny dataset: together they must fill every field of the Paper
// the checklist grades, so an entry whose graded flag is missing fails.
func TestFindingsRunsWhatItGrades(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() { os.Stdout = stdout; devnull.Close() })

	o := eval.Options{Datasets: []string{"Beer"}, Seeds: []int64{1}, QuestionCap: 16, PoolCap: 100}
	var p eval.Paper
	for _, e := range experiments {
		if e.selectedBy("findings") {
			if err := e.run(o, &p); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		}
	}
	v := reflect.ValueOf(p)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Errorf("-exp findings left Paper.%s empty", v.Type().Field(i).Name)
		}
	}
}
