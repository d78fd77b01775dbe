package main

import (
	"testing"

	"batcher/batcher"
)

func TestCheckAttr(t *testing.T) {
	table := []batcher.Record{
		{ID: "1", Attrs: []string{"beer_name", "brew_factory_name", "style"}, Values: []string{"x", "y", "z"}},
	}
	for _, attr := range []string{"", "beer_name", "style"} {
		if err := checkAttr(attr, "tableA.csv", table); err != nil {
			t.Errorf("checkAttr(%q) = %v, want accepted", attr, err)
		}
	}
	if err := checkAttr("beer_nme", "tableA.csv", nil); err != nil {
		t.Errorf("checkAttr on an empty table = %v, want accepted", err)
	}
	for _, attr := range []string{"beer_nme", "Beer_Name", "id"} {
		if checkAttr(attr, "tableA.csv", table) == nil {
			t.Errorf("checkAttr(%q) accepted, want rejected", attr)
		}
	}
	const want = `-attr "beer_nme" is not a column of tableA.csv (columns: beer_name, brew_factory_name, style)`
	if err := checkAttr("beer_nme", "tableA.csv", table); err == nil || err.Error() != want {
		t.Errorf("checkAttr(\"beer_nme\") = %v, want %s", err, want)
	}
}
