package main

import (
	"math"
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

func TestCheckTaus(t *testing.T) {
	for _, tc := range [][2]float64{{0.05, 0.95}, {0.2, 0.7}, {1e-9, 0.999999999}, {0.5, 0.5000001}} {
		if err := checkTaus(tc[0], tc[1]); err != nil {
			t.Errorf("checkTaus(%v, %v) = %v, want accepted", tc[0], tc[1], err)
		}
	}
	for _, tc := range []struct {
		lo, hi float64
		want   string
	}{
		{0, 0.95, "-tau-lo 0 must be above 0"},
		{-0.1, 0.95, "-tau-lo -0.1 must be above 0"},
		{math.NaN(), 0.95, "-tau-lo NaN must be above 0"},
		{0.05, 0, "-tau-hi 0 must be above 0"},
		{0.05, math.NaN(), "-tau-hi NaN must be above 0"},
		{0, 0, "-tau-lo 0 must be above 0"},
		{0.05, 1, "-tau-hi 1 must be below 1"},
		{0.5, 3, "-tau-hi 3 must be below 1"},
		{0.05, math.Inf(1), "-tau-hi +Inf must be below 1"},
		{1, 0.95, "-tau-lo 1 must be below 1"},
		{0.9, 0.1, "-tau-lo 0.9 must be below -tau-hi 0.1"},
		{0.5, 0.5, "-tau-lo 0.5 must be below -tau-hi 0.5"},
	} {
		if err := checkTaus(tc.lo, tc.hi); err == nil || err.Error() != tc.want {
			t.Errorf("checkTaus(%v, %v) = %v, want %s", tc.lo, tc.hi, err, tc.want)
		}
	}
}

func TestCheckRunFlags(t *testing.T) {
	for _, tc := range []struct {
		name                string
		shard, merge, runID string
		resume              bool
		window              int
		want                string // "" = accepted
		wantSpec            batcher.ShardSpec
	}{
		{name: "plain"},
		{name: "journaled", runID: "r"},
		{name: "resume", runID: "r", resume: true},
		{name: "shard", shard: "0/3", runID: "s0", window: 64, wantSpec: batcher.ShardSpec{Index: 0, Count: 3}},
		{name: "one shard, one window", shard: "0/1", runID: "s0", wantSpec: batcher.ShardSpec{Index: 0, Count: 1}},
		{name: "merge", merge: "runs", window: 64},
		{name: "merge ignores resume", merge: "runs", resume: true},
		{name: "resume without run-id", resume: true,
			want: "-resume requires -run-id"},
		{name: "merge with run-id", merge: "runs", runID: "r",
			want: "-merge-shards and -run-id are mutually exclusive (the merged run is journaled as <dir>/merged)"},
		{name: "shard with merge", shard: "0/3", merge: "runs", runID: "s0", window: 64,
			want: "-shard and -merge-shards are mutually exclusive"},
		{name: "shard without run-id", shard: "0/3", window: 64,
			want: "-shard requires -run-id: each shard journals its own progress for the merge"},
		{name: "bad spec", shard: "3/3", runID: "s3", window: 64,
			want: `parsing -shard: shard: spec "3/3": shard: index 3 outside [0, 3)`},
		{name: "shard without window", shard: "0/3", runID: "s0",
			want: "-shard 0/3 requires -stream-window > 0 (the default is a single window, which cannot be split)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := checkRunFlags(tc.shard, tc.merge, tc.runID, tc.resume, tc.window)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if spec != tc.wantSpec {
					t.Errorf("spec = %v, want %v", spec, tc.wantSpec)
				}
				return
			}
			if err == nil || err.Error() != tc.want {
				t.Errorf("err = %v, want %s", err, tc.want)
			}
		})
	}
}

// TestNoCandidatesWarning: a run that blocked no pair warns, naming
// -attr, -min-shared and the posting cap; one that blocked any pair
// does not.
func TestNoCandidatesWarning(t *testing.T) {
	for _, tc := range []struct {
		blocked   int
		attr      string
		minShared int
		want      string
	}{
		{0, "", 2, `ermatch: warning: blocking yielded 0 candidates: no pair of rows shares -min-shared 2 tokens of -attr "" (every attribute) ` +
			`once tokens in more than 512 rows of table B (the posting cap) are skipped; try another -attr or a lower -min-shared`},
		{0, "title", 3, `ermatch: warning: blocking yielded 0 candidates: no pair of rows shares -min-shared 3 tokens of -attr "title" ` +
			`once tokens in more than 512 rows of table B (the posting cap) are skipped; try another -attr or a lower -min-shared`},
		{1, "", 2, ""},
		{13207, "beer_name", 2, ""},
	} {
		if got := noCandidatesWarning(tc.blocked, tc.attr, tc.minShared); got != tc.want {
			t.Errorf("noCandidatesWarning(%d, %q, %d) =\n%s\nwant\n%s", tc.blocked, tc.attr, tc.minShared, got, tc.want)
		}
	}
}
