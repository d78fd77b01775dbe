package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"batcher/batcher"
)

// childArg, as the test binary's first argument, makes it run ermatch's
// main on the arguments after it instead of the tests.
const childArg = "ermatch-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runErmatch runs ermatch with args in a child process and returns its
// exit code and stderr.
func runErmatch(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{childArg}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

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

func TestCheckModels(t *testing.T) {
	for _, tc := range []struct {
		model, cheap string
		cascade      bool
		want         string // "" = accepted
	}{
		{batcher.GPT35Turbo0301, batcher.GPT35Turbo0301, false, ""},
		{batcher.GPT4, batcher.GPT35Turbo0613, true, ""},
		{batcher.Llama2Chat70B, "", true, ""},
		{batcher.GPT4, "gtp-3.5", false, ""}, // -cheap-model is read only with -cascade
		{"gpt-5", batcher.GPT35Turbo0301, false, `-model: llm: unknown model: "gpt-5"`},
		{"", batcher.GPT35Turbo0301, true, `-model: llm: unknown model: ""`},
		{batcher.GPT4, "gtp-3.5", true, `-cheap-model: llm: unknown model: "gtp-3.5"`},
	} {
		err := checkModels(tc.model, tc.cheap, tc.cascade)
		if tc.want == "" && err != nil {
			t.Errorf("checkModels(%q, %q, %v) = %v, want accepted", tc.model, tc.cheap, tc.cascade, err)
		}
		if tc.want != "" && (err == nil || err.Error() != tc.want || !errors.Is(err, batcher.ErrUnknownModel)) {
			t.Errorf("checkModels(%q, %q, %v) = %v, want %s matching ErrUnknownModel", tc.model, tc.cheap, tc.cascade, err, tc.want)
		}
	}
}

// TestUnknownModelRefusedBeforeIO: a mistyped -model, or -cheap-model
// with -cascade, exits 2 naming it before any output: no -out file and
// no -run-id journal appear.
func TestUnknownModelRefusedBeforeIO(t *testing.T) {
	dir := t.TempDir()
	table := "id,title\n1,apple iphone 13 pro\n2,samsung galaxy s9\n3,apple iphone 13\n"
	pathA, pathB := filepath.Join(dir, "tableA.csv"), filepath.Join(dir, "tableB.csv")
	for _, p := range []string{pathA, pathB} {
		if err := os.WriteFile(p, []byte(table), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		flags []string
		want  string
	}{
		{"model", []string{"-model", "gpt-5"}, `ermatch: -model: llm: unknown model: "gpt-5"`},
		{"cheap-model", []string{"-cascade", "-cheap-model", "gtp-3.5"}, `ermatch: -cheap-model: llm: unknown model: "gtp-3.5"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, runDir := filepath.Join(dir, tc.name+".csv"), filepath.Join(dir, tc.name+"-runs")
			code, stderr := runErmatch(t, append([]string{"-a", pathA, "-b", pathB, "-attr", "title",
				"-min-shared", "1", "-out", out, "-run-id", "r", "-run-dir", runDir}, tc.flags...)...)
			if code != 2 || strings.TrimSpace(stderr) != tc.want {
				t.Errorf("exit %d, stderr %q; want exit 2 and %q", code, stderr, tc.want)
			}
			for _, p := range []string{out, runDir} {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%s exists (stat: %v), want nothing written", p, err)
				}
			}
		})
	}
}

func TestCheckMinShared(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string // "" = accepted
	}{
		{1, ""},
		{2, ""},
		{7, ""},
		{0, "-min-shared 0 must be at least 1"},
		{-1, "-min-shared -1 must be at least 1"},
		{math.MinInt, fmt.Sprintf("-min-shared %d must be at least 1", math.MinInt)},
	} {
		err := checkMinShared(tc.n)
		if tc.want == "" && err != nil {
			t.Errorf("checkMinShared(%d) = %v, want accepted", tc.n, err)
		}
		if tc.want != "" && (err == nil || err.Error() != tc.want) {
			t.Errorf("checkMinShared(%d) = %v, want %s", tc.n, err, tc.want)
		}
	}
}

func TestCheckFaultFlags(t *testing.T) {
	for _, tc := range []struct {
		degrade, chaos string
		policy         batcher.DegradePolicy
		on             bool // a non-zero fault profile
	}{
		{"fail-fast", "", batcher.DegradeFailFast, false},
		{"unknown", "mild", batcher.DegradeUnknown, true},
		{"cheap-only", "aggressive", batcher.DegradeCheapOnly, true},
	} {
		policy, profile, err := checkFaultFlags(tc.degrade, tc.chaos)
		if err != nil || policy != tc.policy || (profile != batcher.FaultProfile{}) != tc.on {
			t.Errorf("checkFaultFlags(%q, %q) = %v, %+v, %v", tc.degrade, tc.chaos, policy, profile, err)
		}
	}
	for _, tc := range []struct{ degrade, chaos, want string }{
		{"bogus", "", `parsing -degrade: core: unknown degrade policy "bogus" (want fail-fast, unknown, or cheap-only)`},
		{"fail-fast", "stormy", `unknown -chaos profile "stormy" (want mild or aggressive)`},
	} {
		if _, _, err := checkFaultFlags(tc.degrade, tc.chaos); err == nil || err.Error() != tc.want {
			t.Errorf("checkFaultFlags(%q, %q) = %v, want %s", tc.degrade, tc.chaos, err, tc.want)
		}
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

// TestWindowTooLargeExits2: a window whose relations pass the memory
// bound (half of GOMEMLIMIT, here 8 bytes) stops the run with exit 2 and
// the refusal naming the projected bytes, and no resume hint: the same
// flags would refuse the same way.
func TestWindowTooLargeExits2(t *testing.T) {
	dir := t.TempDir()
	table := "id,title\n1,apple iphone 13 pro\n2,samsung galaxy s9\n3,apple iphone 13\n"
	path := filepath.Join(dir, "table.csv")
	if err := os.WriteFile(path, []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], childArg, "-a", path, "-b", path, "-attr", "title", "-min-shared", "1",
		"-out", filepath.Join(dir, "out.csv"), "-run-id", "r", "-run-dir", filepath.Join(dir, "runs"))
	cmd.Env = append(os.Environ(), "GOMEMLIMIT=16B")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil && !errors.As(err, new(*exec.ExitError)) {
		t.Fatal(err)
	}
	want := "core: a window of 5 candidates (2 distinct feature vectors) needs 32 B for its relations, over the 8 B bound; no window fits"
	if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(stderr.String(), want) || strings.Contains(stderr.String(), "resume with") {
		t.Errorf("exit %d, stderr %q; want exit 2 naming %q and no resume hint", code, stderr.String(), want)
	}
}
