package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/runstore"
	"batcher/internal/shard"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/executor_golden.json from the executor under test")

const executorGoldenPath = "testdata/executor_golden.json"

// goldenCrashAfter is the fixed LLM-call budget of the crash phase: two
// complete 16-pair windows of 4-pair batches plus one batch of the third.
const goldenCrashAfter = 9

// goldenPhase pins everything one run leaves behind that the executor's
// contract calls deterministic: the journal's bytes, the OnPair and
// Progress sequences (see capture), the bill, and the report counters.
// Dollars are float bits, as in capture.
type goldenPhase struct {
	JournalSHA256  string `json:"journal_sha256"`
	OnPairSHA256   string `json:"onpair_sha256"`
	ProgressSHA256 string `json:"progress_sha256,omitempty"`
	Calls          int    `json:"calls"`
	InputTokens    int    `json:"input_tokens"`
	OutputTokens   int    `json:"output_tokens"`
	APIDollarBits  string `json:"api_dollar_bits"`
	LabeledPairs   int    `json:"labeled_pairs"`
	Candidates     int    `json:"candidates"`
	AutoResolved   int    `json:"auto_resolved"`
	Matches        int    `json:"matches"`
	Replayed       int    `json:"replayed"`
	// Windows is pinned on completed runs only: whether a crashed run's
	// failed window counts into it is not part of what this file holds
	// fixed (windowed modes still pin it through Progress). The stream's
	// window count is in the journal's terminal record, which
	// JournalSHA256 covers.
	Windows int `json:"windows,omitempty"`
}

// goldenEntry is one (StreamWindow, InFlightWindows, variant) cell. Crash
// and Resume exist where a crashed journal is deterministic: at most one
// window in flight and at most one batch in flight.
type goldenEntry struct {
	Full   goldenPhase  `json:"full"`
	Crash  *goldenPhase `json:"crash,omitempty"`
	Resume *goldenPhase `json:"resume,omitempty"`
}

type executorGolden struct {
	// Arch is the GOARCH the values were recorded on; floating-point
	// contraction differs between architectures, so the pin binds only
	// where it was taken (as benchmark/golden.json does).
	Arch    string                 `json:"arch"`
	Entries map[string]goldenEntry `json:"entries"`
}

func sha256Lines(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenRun executes one run with both hooks captured and digests what
// it left behind. The run may fail (the crash phase); a nil report is
// not acceptable in any phase recorded here.
func goldenRun(t *testing.T, cfg Config, client llm.Client, ta, tb []entity.Record, jdir string, completed bool) goldenPhase {
	t.Helper()
	c, err := capture(cfg, client, ta, tb)
	rep := c.rep
	if completed && err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !completed && err == nil {
		t.Fatal("crashing run did not fail")
	}
	if rep == nil {
		t.Fatalf("no report (err = %v)", err)
	}
	if err := cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	ph := goldenPhase{
		JournalSHA256: sha256Lines([]string{journalBytes(t, jdir)}),
		OnPairSHA256:  sha256Lines(c.pairSeq),
		Calls:         rep.Result.Ledger.Calls(),
		InputTokens:   rep.Result.Ledger.InputTokens(),
		OutputTokens:  rep.Result.Ledger.OutputTokens(),
		APIDollarBits: fmt.Sprintf("%016x", math.Float64bits(rep.Result.Ledger.API())),
		LabeledPairs:  rep.Result.Ledger.LabeledPairs(),
		Candidates:    rep.Candidates,
		AutoResolved:  rep.AutoResolved,
		Matches:       len(rep.Matches),
		Replayed:      rep.Replayed,
	}
	if cfg.StreamWindow > 0 {
		ph.ProgressSHA256 = sha256Lines(c.progSeq)
	}
	if completed {
		ph.Windows = rep.Windows
	}
	return ph
}

// openStampedJournal opens a fresh journal whose meta record is already
// written with a fixed creation time, so the journal bytes of two runs
// of one configuration are comparable (Compatible ignores CreatedUnix).
func openStampedJournal(t *testing.T, dir string, cfg Config, ta, tb []entity.Record) *runstore.Journal {
	t.Helper()
	ctx := context.Background()
	pre, err := runstore.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = pre
	meta := runMeta(cfg, core.NewFromConfig(nil, cfg.Matcher), ta, tb)
	meta.CreatedUnix = 1
	if err := pre.WriteMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := runstore.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestExecutorGolden holds the window executor to a recording taken from
// the three executors it replaced (runCollected, runWindowed,
// runPipelined at 43903f9): for every (StreamWindow, InFlightWindows)
// shape and configuration variant, the journal bytes, hook sequences,
// bill and counters of a complete run — and, where a crash is
// deterministic, of a run crashed at a fixed call and of its resume —
// must come out exactly as recorded.
func TestExecutorGolden(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:90], d.TableB[:90]
	oracle := llm.BuildOracle(d.Pairs)
	pf := beerPrefilter(t, d)
	sharedPool := entity.SplitPairs(d.Pairs).Train

	shapes := []struct{ w, k int }{{0, 0}, {16, 1}, {16, 4}}
	variants := []struct {
		name      string
		windowed  bool // needs StreamWindow > 0
		crashable bool // batches land one at a time
		cascade   bool // needs the two-tier backend
		apply     func(*Config)
	}{
		{name: "self_pooled", crashable: true, apply: func(*Config) {}},
		{name: "shared_pool", crashable: true, apply: func(c *Config) { c.Pool = sharedPool }},
		{name: "parallelism_3", apply: func(c *Config) { c.Matcher.Parallelism = 3 }},
		{name: "cascade", crashable: true, cascade: true, apply: func(c *Config) {
			c.Matcher.Model = llm.GPT4
			c.Matcher.CheapModel = llm.GPT35Turbo0301
			c.Matcher.EscalateMargin = 0.15
			c.Prefilter = pf
		}},
		{name: "shard_1_of_3", windowed: true, crashable: true, apply: func(c *Config) {
			c.Shard = shard.Spec{Index: 1, Count: 3}
		}},
	}

	got := executorGolden{Arch: runtime.GOARCH, Entries: map[string]goldenEntry{}}
	for _, sh := range shapes {
		for _, v := range variants {
			if v.windowed && sh.w == 0 {
				continue
			}
			name := fmt.Sprintf("w%d_k%d/%s", sh.w, sh.k, v.name)
			t.Run(name, func(t *testing.T) {
				newCfg := func() Config {
					cfg := Config{
						Blocker:         &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
						Matcher:         core.Config{BatchSize: 4, Seed: 1},
						StreamWindow:    sh.w,
						InFlightWindows: sh.k,
					}
					v.apply(&cfg)
					return cfg
				}
				newBackend := func() llm.Client {
					if v.cascade {
						return newCascadeBackend(oracle)
					}
					return llm.NewSimulated(oracle, 1)
				}
				ctx := context.Background()
				var e goldenEntry

				jdir := filepath.Join(t.TempDir(), "run")
				cfg := newCfg()
				cfg.Journal = openStampedJournal(t, jdir, cfg, ta, tb)
				e.Full = goldenRun(t, cfg, newBackend(), ta, tb, jdir, true)

				if v.crashable && sh.k <= 1 {
					dir := t.TempDir()
					jdir, cdir := filepath.Join(dir, "run"), filepath.Join(dir, "cache")
					backend := newBackend()

					cfg := newCfg()
					cfg.Journal = openStampedJournal(t, jdir, cfg, ta, tb)
					c1, err := runstore.OpenCache(ctx, &failAfter{inner: backend, left: goldenCrashAfter}, cdir, 0)
					if err != nil {
						t.Fatal(err)
					}
					crash := goldenRun(t, cfg, c1, ta, tb, jdir, false)
					if err := c1.Close(); err != nil {
						t.Fatal(err)
					}
					e.Crash = &crash

					cfg = newCfg()
					if cfg.Journal, err = runstore.OpenJournal(ctx, jdir); err != nil {
						t.Fatal(err)
					}
					c2, err := runstore.OpenCache(ctx, backend, cdir, 0)
					if err != nil {
						t.Fatal(err)
					}
					resume := goldenRun(t, cfg, c2, ta, tb, jdir, true)
					if err := c2.Close(); err != nil {
						t.Fatal(err)
					}
					e.Resume = &resume
				}
				got.Entries[name] = e
			})
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(executorGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(executorGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(executorGoldenPath)
	if err != nil {
		t.Fatalf("%v (record with go test -run TestExecutorGolden -update)", err)
	}
	var want executorGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", executorGoldenPath, err)
	}
	if want.Arch != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s", want.Arch, runtime.GOARCH)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Errorf("%d entries run, golden has %d", len(got.Entries), len(want.Entries))
	}
	for name, w := range want.Entries {
		g, ok := got.Entries[name]
		if !ok {
			t.Errorf("%s: in the golden file but not run", name)
			continue
		}
		for _, ph := range []struct {
			tag       string
			got, want *goldenPhase
		}{{"full", &g.Full, &w.Full}, {"crash", g.Crash, w.Crash}, {"resume", g.Resume, w.Resume}} {
			if (ph.got == nil) != (ph.want == nil) {
				t.Errorf("%s/%s: phase presence differs from the golden file", name, ph.tag)
			} else if ph.got != nil && *ph.got != *ph.want {
				t.Errorf("%s/%s:\n got  %s\n want %s", name, ph.tag, phaseString(*ph.got), phaseString(*ph.want))
			}
		}
	}
}

func phaseString(p goldenPhase) string {
	data, _ := json.Marshal(p) // a struct of strings and ints cannot fail to marshal
	return strings.ReplaceAll(string(data), `"`, "")
}
