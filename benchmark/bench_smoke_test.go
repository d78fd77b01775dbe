package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes itself for every set-up and measuring child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the smoke test checks the
// program against.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs all four workloads at 400x400 with one iteration each,
// untraced and traced, from a scratch working directory, and checks
// that what is printed is what BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	t.Chdir(t.TempDir())
	tracePath := "trace.json"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seed", "3", "-rows", "400", "-seconds", "0", "-trace", tracePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	// Every listed name is printed exactly once per workload, with its unit.
	printed := map[string]int{}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		if !nameRE.MatchString(f[1]) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", f[1])
		}
		printed[f[0]+" "+f[1]+" "+f[2]]++
	}
	want := 0
	for _, w := range workloads {
		for _, list := range [][]struct{ Name, Unit string }{bj.EndToEnd, bj.PerLayer} {
			for _, m := range list {
				want++
				if n := printed[w.name+" "+m.Name+" "+m.Unit]; n != 1 {
					t.Errorf("%s: metric %s (%s) printed %d times, want once", w.name, m.Name, m.Unit, n)
				}
			}
		}
	}
	if len(printed) != want {
		t.Errorf("%d distinct metric lines printed, BENCHMARK.json lists %d", len(printed), want)
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the program defines %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}

	// The trace parses, holds one run per workload, and every span's
	// parent is a span of the same run.
	data, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var traces []traceFile
	if err := json.Unmarshal(data, &traces); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(traces) != len(workloads) {
		t.Fatalf("trace holds %d runs, want %d", len(traces), len(workloads))
	}
	for _, tf := range traces {
		ids := map[int]bool{0: true}
		names := map[string]bool{}
		for _, s := range tf.Spans {
			ids[s.ID] = true
			names[s.Name] = true
		}
		for _, s := range tf.Spans {
			if !ids[s.Parent] {
				t.Errorf("%s: span %d (%s) has no parent %d", tf.Run, s.ID, s.Name, s.Parent)
			}
			if s.Run != tf.Run || s.EndUS < s.StartUS {
				t.Errorf("%s: malformed span %+v", tf.Run, s)
			}
		}
		for _, name := range []string{"run", "setup", "csv_read", "probe", "core.prepare"} {
			if !names[name] {
				t.Errorf("%s: no %q span", tf.Run, name)
			}
		}
	}
}
