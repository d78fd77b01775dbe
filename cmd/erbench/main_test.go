package main

import "testing"

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
