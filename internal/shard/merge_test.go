package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/runstore"
	"batcher/internal/shard"
)

// baseMeta is the shared run fingerprint every synthetic shard carries;
// only RunID and Shard vary per journal.
func baseMeta() runstore.RunMeta {
	return runstore.RunMeta{
		Model:        "gpt-4",
		Seed:         7,
		BatchSize:    4,
		NumDemos:     2,
		Batching:     "diverse",
		Selection:    "topk",
		StreamWindow: 8,
		RowsA:        50,
		RowsB:        50,
		TableHash:    "feedc0de4badf00d01234567",
		CreatedUnix:  1700000000,
	}
}

// fwin is one synthetic stream window: its global ordinal, partition
// key, and matcher-facing size (0 = fully auto-resolved).
type fwin struct {
	global int
	key    string
	size   int
}

// streamWindows builds total windows whose partition keys spread them
// across n shards by the real Assign hash, sizes cycling 0..2.
func streamWindows(total, n int) []fwin {
	wins := make([]fwin, total)
	for g := range wins {
		wins[g] = fwin{
			global: g,
			key:    fmt.Sprintf("a%d|b%d", g, g),
			size:   (g + 1) % 3,
		}
	}
	_ = n
	return wins
}

// owner returns the shard that owns window w in an n-way partition.
func owner(w fwin, n int) int { return shard.Assign(w.key, n) }

// writeShard journals one shard: the meta, the given windows at
// shard-local coordinates (one batch per non-empty window), and the
// terminal record if done is non-nil.
func writeShard(t *testing.T, dir string, meta runstore.RunMeta, wins []fwin, done *runstore.RunDone) {
	t.Helper()
	j, err := runstore.OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	meta.RunID = j.RunID()
	if err := j.WriteMeta(meta); err != nil {
		t.Fatal(err)
	}
	offset := 0
	for li, w := range wins {
		err := j.WindowStart(runstore.WindowStart{
			Index: li, Offset: offset, Size: w.size, Global: w.global, Key: w.key,
		})
		if err != nil {
			t.Fatal(err)
		}
		if w.size > 0 {
			qs := make([]int, w.size)
			keys := make([]string, w.size)
			preds := make([]entity.Label, w.size)
			for q := range qs {
				qs[q] = q
				keys[q] = fmt.Sprintf("%s#%d", w.key, q)
				preds[q] = entity.Match
			}
			err := j.BatchDone(runstore.BatchDone{
				Window: li, Batch: 0, Questions: qs, Keys: keys, Pred: preds,
				Calls: 1, InputTokens: 40, OutputTokens: 4, APIDollars: 0.0017,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		offset += w.size
	}
	if done != nil {
		if err := j.Done(*done); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// shardSet writes a complete, valid n-shard partition of total windows
// under dir and returns the shard journal directories plus each shard's
// owned windows.
func shardSet(t *testing.T, dir string, n, total int) ([]string, [][]fwin) {
	t.Helper()
	wins := streamWindows(total, n)
	owned := make([][]fwin, n)
	for _, w := range wins {
		i := owner(w, n)
		owned[i] = append(owned[i], w)
	}
	dirs := make([]string, n)
	for i := 0; i < n; i++ {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		meta := baseMeta()
		meta.Shard = shard.Spec{Index: i, Count: n}.String()
		writeShard(t, dirs[i], meta, owned[i], &runstore.RunDone{Windows: total, Owned: len(owned[i])})
	}
	return dirs, owned
}

func TestMergeValidSet(t *testing.T) {
	dir := t.TempDir()
	dirs, owned := shardSet(t, dir, 3, 8)
	sum, err := shard.Merge(context.Background(), dirs, filepath.Join(dir, "merged"))
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if sum.Shards != 3 || sum.Windows != 8 {
		t.Errorf("summary = %+v, want 3 shards / 8 windows", sum)
	}
	if sum.Meta.Shard != "" || sum.Meta.RunID != "merged" {
		t.Errorf("merged meta shard=%q run=%q, want cleared spec and run ID 'merged'", sum.Meta.Shard, sum.Meta.RunID)
	}
	for i, o := range owned {
		if len(o) == 0 {
			t.Logf("shard %d owned no windows (empty-shard merge exercised)", i)
		}
	}

	// The merged journal is one gap-free run in global coordinates with
	// a terminal record, every window start carrying its coordinates.
	j, err := runstore.OpenJournal(context.Background(), filepath.Join(dir, "merged"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := j.State()
	if st.Windows() != 8 {
		t.Fatalf("merged journal has %d windows, want 8", st.Windows())
	}
	offset := 0
	for g := 0; g < 8; g++ {
		ws, ok := st.WindowStart(g)
		if !ok {
			t.Fatalf("merged journal missing window %d", g)
		}
		if ws.Global != g || ws.Offset != offset {
			t.Errorf("window %d: global=%d offset=%d, want %d/%d", g, ws.Global, ws.Offset, g, offset)
		}
		if ws.Size > 0 && !st.WindowComplete(g, ws.Size) {
			t.Errorf("merged window %d incomplete", g)
		}
		offset += ws.Size
	}
	done, ok := st.Done()
	if !ok || done.Windows != 8 || done.Owned != 8 {
		t.Errorf("merged terminal record = %+v ok=%v, want {8 8}", done, ok)
	}
}

// TestMergeEmptyStream covers the degenerate partition: a run whose
// candidate stream produced zero windows still merges into a journal
// holding just the fingerprint and the terminal record.
func TestMergeEmptyStream(t *testing.T) {
	dir := t.TempDir()
	dirs, _ := shardSet(t, dir, 2, 0)
	sum, err := shard.Merge(context.Background(), dirs, filepath.Join(dir, "merged"))
	if err != nil {
		t.Fatalf("merge of an empty stream: %v", err)
	}
	if sum.Windows != 0 || sum.Pairs != 0 {
		t.Errorf("summary = %+v, want zero windows and pairs", sum)
	}
}

// mergeErr runs a merge expected to fail and returns the error.
func mergeErr(t *testing.T, dirs []string, out string) error {
	t.Helper()
	_, err := shard.Merge(context.Background(), dirs, out)
	if err == nil {
		t.Fatal("merge of a broken shard set succeeded")
	}
	return err
}

func TestMergeRejectsBrokenSets(t *testing.T) {
	const n, total = 3, 8
	build := func(t *testing.T, mutate func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone)) []string {
		dir := t.TempDir()
		wins := streamWindows(total, n)
		owned := make([][]fwin, n)
		for _, w := range wins {
			i := owner(w, n)
			owned[i] = append(owned[i], w)
		}
		dirs := make([]string, n)
		for i := 0; i < n; i++ {
			dirs[i] = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
			meta := baseMeta()
			meta.Shard = shard.Spec{Index: i, Count: n}.String()
			done := &runstore.RunDone{Windows: total, Owned: len(owned[i])}
			w := owned[i]
			mutate(i, &meta, &w, &done)
			writeShard(t, dirs[i], meta, w, done)
		}
		return dirs
	}
	// busiest is a shard guaranteed to own at least one window.
	busiest := owner(streamWindows(total, n)[0], n)

	cases := []struct {
		name   string
		want   error
		mutate func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone)
		dirs   func(dirs []string) []string
	}{
		{
			name: "duplicate shard index",
			want: shard.ErrShardSet,
			mutate: func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone) {
				if i == 1 {
					meta.Shard = shard.Spec{Index: 0, Count: n}.String()
				}
			},
		},
		{
			name: "wrong shard count",
			want: shard.ErrShardSet,
			mutate: func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone) {
				if i == 0 {
					meta.Shard = shard.Spec{Index: 0, Count: n + 1}.String()
				}
			},
		},
		{
			name:   "missing member",
			want:   shard.ErrShardSet,
			mutate: func(int, *runstore.RunMeta, *[]fwin, **runstore.RunDone) {},
			dirs:   func(dirs []string) []string { return dirs[:n-1] },
		},
		{
			name: "mismatched fingerprint",
			want: shard.ErrShardMeta,
			mutate: func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone) {
				if i == 1 {
					meta.Seed = 99
				}
			},
		},
		{
			name: "unsharded journal",
			want: shard.ErrShardMeta,
			mutate: func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone) {
				if i == 0 {
					meta.Shard = ""
				}
			},
		},
		{
			name: "no terminal record",
			want: shard.ErrShardIncomplete,
			mutate: func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone) {
				if i == busiest {
					*done = nil
				}
			},
		},
		{
			name: "terminal count disagrees with journal",
			want: shard.ErrShardIncomplete,
			mutate: func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone) {
				if i == busiest {
					(*done).Owned++
				}
			},
		},
		{
			name: "missing window",
			want: shard.ErrShardWindows,
			mutate: func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone) {
				if i == busiest {
					*wins = (*wins)[:len(*wins)-1]
					(*done).Owned--
				}
			},
		},
		{
			name: "overlapping coverage",
			want: shard.ErrShardWindows,
			mutate: func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone) {
				if i != busiest {
					// Claim a window the busiest shard already owns.
					stolen := streamWindows(total, n)[0]
					*wins = append(*wins, stolen)
					(*done).Owned++
				}
			},
		},
		{
			name: "stream size disagreement",
			want: shard.ErrShardWindows,
			mutate: func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone) {
				if i == busiest {
					(*done).Windows++
				}
			},
		},
		{
			name: "window without partition coordinates",
			want: shard.ErrShardWindows,
			mutate: func(i int, meta *runstore.RunMeta, wins *[]fwin, done **runstore.RunDone) {
				if i == busiest {
					(*wins)[0].key = ""
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dirs := build(t, tc.mutate)
			if tc.dirs != nil {
				dirs = tc.dirs(dirs)
			}
			out := filepath.Join(t.TempDir(), "merged")
			if err := mergeErr(t, dirs, out); !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestMergeRejectsPartialWindow covers the crashed-shard case the
// property test cannot reach (its shards always resume to completion):
// a window with a start and a short batch but a matching terminal
// record must be refused as incomplete, not silently merged.
func TestMergeRejectsPartialWindow(t *testing.T) {
	dir := t.TempDir()
	const n = 2
	wins := streamWindows(4, n)
	dirs := make([]string, n)
	for i := 0; i < n; i++ {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		var o []fwin
		for _, w := range wins {
			if owner(w, n) == i {
				o = append(o, w)
			}
		}
		meta := baseMeta()
		meta.Shard = shard.Spec{Index: i, Count: n}.String()
		writeShard(t, dirs[i], meta, o, &runstore.RunDone{Windows: 4, Owned: len(o)})
	}
	// Re-journal the busiest shard with its first window's batch holding
	// one fewer answer than the window size claims.
	busiest := owner(wins[0], n)
	pdir := filepath.Join(dir, "partial")
	j, err := runstore.OpenJournal(context.Background(), pdir)
	if err != nil {
		t.Fatal(err)
	}
	meta := baseMeta()
	meta.RunID = j.RunID()
	meta.Shard = shard.Spec{Index: busiest, Count: n}.String()
	if err := j.WriteMeta(meta); err != nil {
		t.Fatal(err)
	}
	var o []fwin
	for _, w := range wins {
		if owner(w, n) == busiest {
			o = append(o, w)
		}
	}
	offset := 0
	for li, w := range o {
		size := w.size
		if li == 0 {
			size = 3 // claim three answers, journal only one below
		}
		err := j.WindowStart(runstore.WindowStart{Index: li, Offset: offset, Size: size, Global: w.global, Key: w.key})
		if err != nil {
			t.Fatal(err)
		}
		err = j.BatchDone(runstore.BatchDone{
			Window: li, Batch: 0, Questions: []int{0}, Keys: []string{w.key + "#0"},
			Pred: []entity.Label{entity.Match}, Calls: 1, InputTokens: 9, OutputTokens: 1, APIDollars: 0.0002,
		})
		if err != nil {
			t.Fatal(err)
		}
		offset += size
	}
	if err := j.Done(runstore.RunDone{Windows: 4, Owned: len(o)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	dirs[busiest] = pdir
	if err := mergeErr(t, dirs, filepath.Join(dir, "merged")); !errors.Is(err, shard.ErrShardIncomplete) {
		t.Errorf("error = %v, want ErrShardIncomplete", err)
	}
}

// TestMergeRefusesNonEmptyOutput guards against clobbering: merging
// into a directory that already holds a journal must fail before
// anything is written.
func TestMergeRefusesNonEmptyOutput(t *testing.T) {
	dir := t.TempDir()
	dirs, _ := shardSet(t, dir, 2, 4)
	out := filepath.Join(dir, "merged")
	if _, err := shard.Merge(context.Background(), dirs, out); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Merge(context.Background(), dirs, out); err == nil {
		t.Error("second merge into the same directory succeeded")
	}
}

// TestMergeFlushesOnceAndRefusesItsOwnCrashedOutput: a merge is one
// sequential write flushed at the end (Done's fsync and Close's), so a
// crash mid-merge leaves an output journal cut somewhere before its
// terminal record. Whatever the cut, once the fingerprint line is whole
// a re-merge into that directory is refused like any non-empty output
// and leaves the bytes alone; the operator empties it and merges again.
func TestMergeFlushesOnceAndRefusesItsOwnCrashedOutput(t *testing.T) {
	dir := t.TempDir()
	dirs, _ := shardSet(t, dir, 3, 8)
	out := filepath.Join(dir, "merged")
	sum, err := shard.Merge(context.Background(), dirs, out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Syncs < 1 || sum.Syncs > 2 {
		t.Errorf("merge issued %d fsyncs, want the terminal record's and Close's only", sum.Syncs)
	}
	seg := "journal-000001.jsonl"
	data, err := os.ReadFile(filepath.Join(out, seg))
	if err != nil {
		t.Fatal(err)
	}
	firstLine := bytes.IndexByte(data, '\n') + 1
	for cut := firstLine; cut <= len(data)-2; cut += 7 {
		crashed := filepath.Join(t.TempDir(), "merged")
		if err := os.MkdirAll(crashed, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, seg), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		err := mergeErr(t, dirs, crashed)
		if !strings.Contains(err.Error(), "is not empty") {
			t.Fatalf("output cut at %d of %d bytes: error = %v, want the non-empty refusal", cut, len(data), err)
		}
		entries, err := os.ReadDir(crashed)
		if err != nil || len(entries) != 1 {
			t.Fatalf("output cut at %d: refused merge left %d entries, %v", cut, len(entries), err)
		}
		if after, _ := os.ReadFile(filepath.Join(crashed, seg)); !bytes.Equal(after, data[:cut]) {
			t.Fatalf("output cut at %d: refused merge rewrote the crashed segment", cut)
		}
	}
}

// TestMergeParallelLoadKeepsArgumentOrder: the shard journals load side
// by side, but a set with several broken members is refused with the
// error a one-by-one walk in argument order meets first — whichever
// load finishes first, at any GOMAXPROCS.
func TestMergeParallelLoadKeepsArgumentOrder(t *testing.T) {
	const n, total = 4, 12
	dir := t.TempDir()
	dirs, owned := shardSet(t, dir, n, total)
	rewrite := func(i int, mutate func(meta *runstore.RunMeta, done **runstore.RunDone)) {
		if err := os.RemoveAll(dirs[i]); err != nil {
			t.Fatal(err)
		}
		meta := baseMeta()
		meta.Shard = shard.Spec{Index: i, Count: n}.String()
		done := &runstore.RunDone{Windows: total, Owned: len(owned[i])}
		mutate(&meta, &done)
		writeShard(t, dirs[i], meta, owned[i], done)
	}
	// Shard 0 loads but fails validation (wrong count), shard 1 has no
	// terminal record, shard 3 is corrupt in the middle of its segment.
	rewrite(0, func(meta *runstore.RunMeta, _ **runstore.RunDone) {
		meta.Shard = shard.Spec{Index: 0, Count: n + 1}.String()
	})
	rewrite(1, func(_ *runstore.RunMeta, done **runstore.RunDone) { *done = nil })
	seg := filepath.Join(dirs[3], "journal-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reversed := []string{dirs[3], dirs[2], dirs[1], dirs[0]}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS_%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for round := 0; round < 20; round++ {
				out := filepath.Join(t.TempDir(), "merged")
				if err := mergeErr(t, dirs, out); !errors.Is(err, shard.ErrShardSet) || !strings.Contains(err.Error(), dirs[0]) {
					t.Fatalf("round %d: error = %v, want shard 0's ErrShardSet", round, err)
				}
				if err := mergeErr(t, dirs[1:], out); !errors.Is(err, shard.ErrShardIncomplete) || !strings.Contains(err.Error(), dirs[1]) {
					t.Fatalf("round %d, without shard 0: error = %v, want shard 1's ErrShardIncomplete", round, err)
				}
				if err := mergeErr(t, reversed, out); !strings.Contains(err.Error(), "corrupt record") {
					t.Fatalf("round %d, reversed: error = %v, want shard 3's corruption", round, err)
				}
			}
		})
	}
}

func TestDiscover(t *testing.T) {
	dir := t.TempDir()
	dirs, _ := shardSet(t, dir, 3, 6)
	if _, err := shard.Merge(context.Background(), dirs, filepath.Join(dir, "merged")); err != nil {
		t.Fatal(err)
	}
	got, err := shard.Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("discovered %v, want the 3 shard dirs (merged/ excluded)", got)
	}
	for i, g := range got {
		if g != dirs[i] {
			t.Errorf("discovered[%d] = %s, want %s", i, g, dirs[i])
		}
	}
}

func TestSpecParseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"0/1", true}, {"2/5", true}, {"4/5", true},
		{"5/5", false}, {"-1/3", false}, {"0/0", false}, {"x/2", false}, {"", false},
	} {
		sp, err := shard.Parse(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("Parse(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && sp.String() != tc.in {
			t.Errorf("Parse(%q).String() = %q", tc.in, sp.String())
		}
	}
}

// TestAssignStableAndTotal pins the assignment function: deterministic,
// in range, and a pure function of the key — every shard computes the
// same owner for every window.
func TestAssignStableAndTotal(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for g := 0; g < 200; g++ {
			key := fmt.Sprintf("a%d|b%d", g, g)
			i := shard.Assign(key, n)
			if i < 0 || i >= n {
				t.Fatalf("Assign(%q, %d) = %d out of range", key, n, i)
			}
			if j := shard.Assign(key, n); j != i {
				t.Fatalf("Assign(%q, %d) unstable: %d then %d", key, n, i, j)
			}
			owns := 0
			for s := 0; s < n; s++ {
				if (shard.Spec{Index: s, Count: n}).Owns(key) {
					owns++
				}
			}
			if owns != 1 {
				t.Fatalf("key %q owned by %d shards of %d", key, owns, n)
			}
		}
	}
}
