package runstore

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"batcher/internal/cost"
	"batcher/internal/entity"
)

// fixtureDir is the committed journal written by the first journal
// format; see TestJournalFixtureOpens.
const fixtureDir = "testdata/journal_v1"

// fixtureMeta is the fixture's run fingerprint: a sharded cascade run,
// so both optional meta fields are present.
var fixtureMeta = RunMeta{
	RunID: "fixture", Model: "gpt-3.5-turbo-0301", Seed: 7, BatchSize: 3, NumDemos: 2,
	Batching: "diversity", Selection: "covering", StreamWindow: 4,
	RowsA: 40, RowsB: 41, TableHash: "0123456789abcdef",
	Cascade: "lr=0.5,-0.25;lo=0.1;hi=0.9;cheap=gpt-3.5-turbo-0301;margin=0.02", Shard: "1/2",
	CreatedUnix: 1700000000,
}

// fixtureStarts are the fixture's window starts, by index: with and
// without Labeled (nil and empty), Global and Key, and a key that needs
// escaping.
var fixtureStarts = []WindowStart{
	{Index: 0, Offset: 0, Size: 4, Labeled: []int{3, 1}, Key: "a0|b0"},
	{Index: 1, Offset: 4, Size: 3, Global: 2, Key: `Ünïcödé & <tag> "q" \ |b9`},
	{Index: 2, Offset: 7, Size: 2, Labeled: []int{}, Global: 5},
	{Index: 3, Offset: 9, Size: 2},
}

// fixtureBatches are the fixture's batch records per window, in the
// order RunState.WindowBatches returns them (a degraded placeholder
// before its repair). Dollars fall on both sides of the 1e-6 and 1e21
// boundaries where encoding/json switches to exponent form.
var fixtureBatches = [][]BatchDone{
	{
		{
			Window: 0, Batch: 0, Questions: []int{0, 1}, Keys: []string{"a0|b0", "a1|b3"},
			Pred:  []entity.Label{entity.Match, entity.NonMatch},
			Calls: 1, InputTokens: 812, OutputTokens: 9, APIDollars: 0.001049,
		},
		{
			Window: 0, Batch: 1, Questions: []int{2, 3}, Keys: []string{"a2|b2", "a3|b8"},
			Pred:  []entity.Label{entity.Unknown, entity.Unknown},
			Calls: 1, InputTokens: 700, OutputTokens: 8, APIDollars: 5e-7,
			Tier:     cost.TierCheap,
			Tiers:    []cost.TierUsage{{Tier: cost.TierCheap, Calls: 1, InputTokens: 700, OutputTokens: 8, Dollars: 5e-7}},
			Degraded: true,
		},
		{
			Window: 0, Batch: 1, Questions: []int{2, 3}, Keys: []string{"a2|b2", "a3|b8"},
			Pred:  []entity.Label{entity.Match, entity.NonMatch},
			Calls: 2, InputTokens: 1600, OutputTokens: 17, APIDollars: 1e-6 + 0.0203,
			TrimmedDemos: 1, Tier: cost.TierExpensive,
			Tiers: []cost.TierUsage{
				{Tier: cost.TierCheap, Calls: 1, InputTokens: 700, OutputTokens: 8, Dollars: 1e-6},
				{Tier: cost.TierExpensive, Calls: 1, InputTokens: 900, OutputTokens: 9, Dollars: 0.0203},
			},
		},
	},
	{
		{
			Window: 1, Batch: 0, Questions: []int{0, 1, 2},
			Keys:  []string{`Ünïcödé & <tag> "q" \ |b9`, "a5|b&c", `a6|b<7>\"`},
			Pred:  []entity.Label{entity.Match, entity.NonMatch, entity.Match},
			Calls: 1, InputTokens: 1200, OutputTokens: 12, APIDollars: 2.5e21,
		},
		{Window: 1, Batch: 1},
		{Window: 1, Batch: 2, Questions: []int{}, Keys: []string{}, Pred: []entity.Label{}},
	},
	{
		{
			Window: 2, Batch: 0, Questions: []int{1, 0}, Keys: []string{"a8|b1", "a7|b0"},
			Pred:  []entity.Label{entity.NonMatch, entity.Match},
			Calls: 1, InputTokens: 640, OutputTokens: 7, APIDollars: 1e20,
			Tiers: []cost.TierUsage{{Tier: cost.TierCheap, Calls: 1, InputTokens: 640, OutputTokens: 7, Dollars: 9.999999e-7}},
		},
		{
			Window: 2, Batch: 1, Questions: []int{1}, Keys: []string{"a8|b1"},
			Pred:  []entity.Label{entity.NonMatch},
			Calls: 1, InputTokens: 300, OutputTokens: 4, APIDollars: 1e21,
		},
	},
	{
		{
			Window: 3, Batch: 0, Questions: []int{0}, Keys: []string{"a9|b4"},
			Pred:  []entity.Label{entity.Match},
			Calls: 1, InputTokens: 330, OutputTokens: 5, APIDollars: 0.000337,
		},
	},
}

// fixtureDone is the fixture's terminal record.
var fixtureDone = RunDone{Windows: 6, Owned: 4}

// TestJournalFixtureOpens opens testdata/journal_v1, a journal recorded
// by the first journal format and committed byte for byte: every record
// kind and every optional field, nil and empty slices, dollars on both
// sides of encoding/json's exponent boundaries, pair keys that need
// escaping, and a torn last line in its first segment. It pins the
// decoded RunState, and re-appending every record read from it must
// reproduce its bytes exactly, apart from the torn line.
//
// The fixture was recorded through the Journal API by the encoding/json
// journal code, before the hand-written record codec, as two processes
// would write it. The first wrote fixtureMeta and windows 0 and 1 into
// segment 1; then half of window 2's start line was appended by hand, as
// a crash mid-write leaves it. The second reopened the journal,
// re-announced what was already journaled (no-ops), and wrote windows 2
// and 3 and fixtureDone into segment 2.
//
// The fixture is never rewritten. Every later journal format version
// must still open it and decode this same state; a new version commits
// a fixture of its own, in its own directory, beside it.
func TestJournalFixtureOpens(t *testing.T) {
	dir := t.TempDir()
	var want []byte // the fixture's bytes without the torn line
	for seg := 1; seg <= 2; seg++ {
		data, err := os.ReadFile(filepath.Join(fixtureDir, segName("journal", seg)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName("journal", seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if seg == 1 {
			cut := bytes.LastIndexByte(data, '\n') + 1
			if cut == len(data) {
				t.Fatal("segment 1 of the fixture has no torn last line")
			}
			data = data[:cut]
		}
		want = append(want, data...)
	}

	j, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := j.State()
	if m, ok := st.Meta(); !ok || m != fixtureMeta {
		t.Errorf("meta = %+v, %v; want %+v", m, ok, fixtureMeta)
	}
	if d, ok := st.Done(); !ok || d != fixtureDone {
		t.Errorf("done = %+v, %v; want %+v", d, ok, fixtureDone)
	}
	if st.Windows() != len(fixtureStarts) {
		t.Fatalf("%d windows, want %d", st.Windows(), len(fixtureStarts))
	}
	type usage struct {
		calls, in, out, trimmed int
		dollars                 uint64 // math.Float64bits of the API total
		tiers                   []cost.TierUsage
	}
	wantPreds := [][]entity.Label{
		{entity.Match, entity.NonMatch, entity.Match, entity.NonMatch},
		{entity.Match, entity.NonMatch, entity.Match},
		{entity.Match, entity.NonMatch},
		nil, // window 3 answered one of its two questions
	}
	wantUsage := []usage{
		{calls: 4, in: 3112, out: 34, trimmed: 1, dollars: 0x3f95dce7cd035372, tiers: []cost.TierUsage{
			{Tier: cost.TierCheap, Calls: 2, InputTokens: 1400, OutputTokens: 16, Dollars: math.Float64frombits(0x3eb92a737110e454)},
			{Tier: cost.TierExpensive, Calls: 1, InputTokens: 900, OutputTokens: 9, Dollars: math.Float64frombits(0x3f94c985f06f6944)},
		}},
		{calls: 1, in: 1200, out: 12, dollars: 0x4460f0cf064dd592},
		{calls: 2, in: 940, out: 11, dollars: 0x444dd0c885f9a0d8, tiers: []cost.TierUsage{
			{Tier: cost.TierCheap, Calls: 1, InputTokens: 640, OutputTokens: 7, Dollars: 9.999999e-7},
		}},
		{calls: 1, in: 330, out: 5, dollars: 0x3f3615ebfa8f7db7},
	}
	for i, ws := range fixtureStarts {
		if len(ws.Labeled) == 0 {
			ws.Labeled = nil // omitempty: an empty list is not written
		}
		got, ok := st.WindowStart(i)
		if !ok || !reflect.DeepEqual(got, ws) {
			t.Errorf("window %d start = %#v, %v; want %#v", i, got, ok, ws)
		}
		preds, ok := st.WindowPreds(i, ws.Size)
		if ok != (wantPreds[i] != nil) || !reflect.DeepEqual(preds, wantPreds[i]) {
			t.Errorf("window %d preds = %v, %v; want %v", i, preds, ok, wantPreds[i])
		}
		l, trimmed := st.WindowUsage(i)
		u := usage{l.Calls(), l.InputTokens(), l.OutputTokens(), trimmed, math.Float64bits(l.API()), l.TierBreakdown()}
		if !reflect.DeepEqual(u, wantUsage[i]) {
			t.Errorf("window %d usage = %+v (dollars %v), want %+v", i, u, l.API(), wantUsage[i])
		}
		if got := st.WindowBatches(i); !reflect.DeepEqual(got, fixtureBatches[i]) {
			t.Errorf("window %d batches =\n%#v\nwant\n%#v", i, got, fixtureBatches[i])
		}
	}

	out := t.TempDir()
	l := openSegLog(out, "journal", 0, 0)
	if _, err := readSegments(context.Background(), dir, "journal", func(rec *journalRecord) error {
		return l.append(*rec)
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(out, segName("journal", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-appended records differ from the fixture:\n got %q\nwant %q", got, want)
	}
}
