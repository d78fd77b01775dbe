package runstore

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"batcher/internal/entity"
)

func testMeta() RunMeta {
	return RunMeta{
		RunID: "r1", Model: "gpt-3.5-turbo-0301", Seed: 1, BatchSize: 8,
		NumDemos: 8, Batching: "diversity", Selection: "cover",
		StreamWindow: 16, RowsA: 10, RowsB: 10, TableHash: "abc",
		CreatedUnix: 1700000000,
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !j.State().Empty() {
		t.Error("fresh journal not empty")
	}
	meta := testMeta()
	if err := j.WriteMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := j.WindowStart(WindowStart{Index: 0, Offset: 0, Size: 3, Labeled: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	b := BatchDone{
		Window: 0, Batch: 0, Questions: []int{0, 2}, Keys: []string{"a|x", "c|z"},
		Pred:  []entity.Label{entity.Match, entity.NonMatch},
		Calls: 1, InputTokens: 100, OutputTokens: 10, APIDollars: 0.12,
	}
	if err := j.BatchDone(b); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := j2.State()
	got, ok := st.Meta()
	if !ok || !got.Compatible(meta) {
		t.Errorf("meta = %+v, ok=%v", got, ok)
	}
	ws, ok := st.WindowStart(0)
	if !ok || ws.Size != 3 || len(ws.Labeled) != 2 {
		t.Errorf("window start = %+v, ok=%v", ws, ok)
	}
	if st.WindowComplete(0, 3) {
		t.Error("window with 2/3 answered reported complete")
	}
	at := WindowStart{Index: 0, Size: 3}
	r, err := st.Replay(at, []string{"a|x", "b|y", "c|z"})
	if err != nil {
		t.Errorf("keys should verify: %v", err)
	}
	if r.Preds != nil {
		t.Error("window with 2/3 answered replayed predictions")
	}
	if l := r.Usage; l.Calls() != 1 || l.InputTokens() != 100 || l.API() != 0.12 {
		t.Errorf("usage = %s", l.String())
	}
	if len(r.Labeled) != 2 {
		t.Errorf("labeled = %v, want the window start's 2", r.Labeled)
	}
	if _, err := st.Replay(at, []string{"a|x", "b|y", "WRONG"}); !errors.Is(err, ErrRunMismatch) {
		t.Errorf("mismatched keys: err = %v, want ErrRunMismatch", err)
	}
}

func TestJournalWindowCompleteAndPreds(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(context.Background(), dir)
	j.WindowStart(WindowStart{Index: 0, Size: 4})
	j.BatchDone(BatchDone{Window: 0, Batch: 0, Questions: []int{0, 1}, Keys: []string{"k0", "k1"},
		Pred: []entity.Label{entity.Match, entity.NonMatch}, Calls: 1})
	j.BatchDone(BatchDone{Window: 0, Batch: 1, Questions: []int{2, 3}, Keys: []string{"k2", "k3"},
		Pred: []entity.Label{entity.NonMatch, entity.Match}, Calls: 1})
	j.Close()

	j2, _ := OpenJournal(context.Background(), dir)
	defer j2.Close()
	st := j2.State()
	r, err := st.Replay(WindowStart{Index: 0, Size: 4}, []string{"k0", "k1", "k2", "k3"})
	if err != nil || r.Preds == nil {
		t.Fatalf("complete window not recognized: %v", err)
	}
	want := []entity.Label{entity.Match, entity.NonMatch, entity.NonMatch, entity.Match}
	for i := range want {
		if r.Preds[i] != want[i] {
			t.Errorf("pred[%d] = %v, want %v", i, r.Preds[i], want[i])
		}
	}
	if _, err := st.Replay(WindowStart{Index: 0, Size: 5}, []string{"k0", "k1", "k2", "k3", "k4"}); !errors.Is(err, ErrRunMismatch) {
		t.Errorf("wrong-size window: err = %v, want ErrRunMismatch", err)
	}
	if st.WindowComplete(0, 5) {
		t.Error("wrong-size window reported complete")
	}
}

func TestJournalFirstWriteWins(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(context.Background(), dir)
	j.WindowStart(WindowStart{Index: 0, Size: 1})
	real := BatchDone{Window: 0, Batch: 0, Questions: []int{0}, Keys: []string{"k"},
		Pred: []entity.Label{entity.Match}, Calls: 1, InputTokens: 50, APIDollars: 0.05}
	if err := j.BatchDone(real); err != nil {
		t.Fatal(err)
	}
	// A resumed run re-journals the same batch served from cache: zero
	// usage. It must not clobber the real record — in this process...
	zero := real
	zero.Calls, zero.InputTokens, zero.APIDollars = 0, 0, 0
	j.BatchDone(zero)
	j.Close()

	// ...or across a reopen, even if a duplicate somehow reached disk.
	j2, _ := OpenJournal(context.Background(), dir)
	j2.BatchDone(zero)
	j2.Close()

	j3, _ := OpenJournal(context.Background(), dir)
	defer j3.Close()
	r, err := j3.State().Replay(WindowStart{Index: 0, Size: 1}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if l := r.Usage; l.Calls() != 1 || l.InputTokens() != 50 || l.API() != 0.05 {
		t.Errorf("duplicate batch corrupted usage: %s", l.String())
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(context.Background(), dir)
	j.WriteMeta(testMeta())
	j.WindowStart(WindowStart{Index: 0, Size: 1})
	j.BatchDone(BatchDone{Window: 0, Batch: 0, Questions: []int{0}, Keys: []string{"k"},
		Pred: []entity.Label{entity.Match}, Calls: 1})
	j.Close()

	// Simulate a crash mid-write: append half a record to the segment.
	names, _, err := listSegments(dir, "journal")
	if err != nil || len(names) == 0 {
		t.Fatalf("segments: %v %v", names, err)
	}
	lastSeg := filepath.Join(dir, names[len(names)-1])
	f, err := os.OpenFile(lastSeg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"c":123,"r":{"batch":{"window":0,"ba`)
	f.Close()

	j2, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer j2.Close()
	if !j2.State().WindowComplete(0, 1) {
		t.Error("records before the torn tail lost")
	}
}

// Regression: a torn tail must stay tolerable forever, not just while
// its segment is the newest. A resume after a crash appends to a fresh
// segment, leaving the torn line as the (permanent) last line of an
// older segment — later opens must still read past it.
func TestJournalSurvivesTornTailThenResume(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(context.Background(), dir)
	j.WriteMeta(testMeta())
	j.WindowStart(WindowStart{Index: 0, Size: 2})
	j.BatchDone(BatchDone{Window: 0, Batch: 0, Questions: []int{0}, Keys: []string{"k0"},
		Pred: []entity.Label{entity.Match}, Calls: 1})
	j.Close()
	names, _, _ := listSegments(dir, "journal")
	f, _ := os.OpenFile(filepath.Join(dir, names[len(names)-1]), os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString(`{"c":123,"r":{"batch":{"window":0,"ba`)
	f.Close()

	// The "resume": drops the torn tail, appends to a new segment.
	j2, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	j2.BatchDone(BatchDone{Window: 0, Batch: 1, Questions: []int{1}, Keys: []string{"k1"},
		Pred: []entity.Label{entity.NonMatch}, Calls: 1})
	j2.Close()

	// A third open must read both segments, torn line and all.
	j3, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatalf("journal bricked after torn tail + resume: %v", err)
	}
	defer j3.Close()
	if !j3.State().WindowComplete(0, 2) {
		t.Error("records around the torn tail lost")
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(context.Background(), dir)
	j.WriteMeta(testMeta())
	j.WindowStart(WindowStart{Index: 0, Size: 5})
	for b := 0; b < 5; b++ {
		j.BatchDone(BatchDone{Window: 0, Batch: b, Questions: []int{b}, Keys: []string{"k"},
			Pred: []entity.Label{entity.Match}, Calls: 1})
	}
	j.Close()

	names, _, _ := listSegments(dir, "journal")
	path := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("want several lines, got %d", len(lines))
	}
	// Flip a byte inside the payload of a middle line: the CRC must catch
	// it, and because it is not the final line it is corruption.
	mid := []byte(lines[1])
	for i := range mid {
		if mid[i] == ':' {
			mid[i] = ';'
			break
		}
	}
	lines[1] = string(mid)
	os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)

	if _, err := OpenJournal(context.Background(), dir); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

func TestJournalSegmentRotation(t *testing.T) {
	old := defaultSegmentBytes
	defaultSegmentBytes = 256
	defer func() { defaultSegmentBytes = old }()

	dir := t.TempDir()
	j, _ := OpenJournal(context.Background(), dir)
	j.WindowStart(WindowStart{Index: 0, Size: 20})
	for b := 0; b < 20; b++ {
		err := j.BatchDone(BatchDone{Window: 0, Batch: b, Questions: []int{b}, Keys: []string{"some-longer-pair-key"},
			Pred: []entity.Label{entity.Match}, Calls: 1, InputTokens: 100})
		if err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	names, _, _ := listSegments(dir, "journal")
	if len(names) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(names))
	}
	j2, _ := OpenJournal(context.Background(), dir)
	defer j2.Close()
	if !j2.State().WindowComplete(0, 20) {
		t.Error("records lost across segment rotation")
	}
}

func TestJournalRejectsOutOfOrderAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(context.Background(), dir)
	bd := BatchDone{Window: 0, Batch: 0, Questions: []int{0}, Keys: []string{"k"},
		Pred: []entity.Label{entity.Match}, Calls: 1}
	if err := j.BatchDone(bd); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("batch before window start: err = %v, want ErrOutOfOrder", err)
	}
	if err := j.WindowStart(WindowStart{Index: 1, Size: 1}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("window-start gap: err = %v, want ErrOutOfOrder", err)
	}
	if err := j.WindowStart(WindowStart{Index: 0, Size: 1}); err != nil {
		t.Fatalf("in-order start rejected: %v", err)
	}
	if err := j.BatchDone(bd); err != nil {
		t.Fatalf("in-order batch rejected: %v", err)
	}
	if err := j.WindowStart(WindowStart{Index: 1, Size: 1}); err != nil {
		t.Fatalf("next window rejected: %v", err)
	}
	j.Close()

	// The invariant counts windows loaded at open: a resume may continue
	// from the journaled frontier but still not skip ahead.
	j2, _ := OpenJournal(context.Background(), dir)
	defer j2.Close()
	if err := j2.WindowStart(WindowStart{Index: 3, Size: 1}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("gap after reopen: err = %v, want ErrOutOfOrder", err)
	}
	if err := j2.WindowStart(WindowStart{Index: 2, Size: 1}); err != nil {
		t.Errorf("contiguous start after reopen rejected: %v", err)
	}
	if err := j2.BatchDone(BatchDone{Window: 2, Batch: 0, Questions: []int{0}, Keys: []string{"k2"},
		Pred: []entity.Label{entity.Match}, Calls: 1}); err != nil {
		t.Errorf("batch for reopened frontier rejected: %v", err)
	}
}

func TestRunMetaCompatible(t *testing.T) {
	a := testMeta()
	b := a
	b.CreatedUnix = 42
	if !a.Compatible(b) {
		t.Error("creation time must not break compatibility")
	}
	b = a
	b.Seed = 99
	if a.Compatible(b) {
		t.Error("different seed reported compatible")
	}
}

func TestLedgerDollarsRoundTripExactly(t *testing.T) {
	// Ledger equality after resume depends on float64 dollars surviving
	// the JSON round trip bit-for-bit.
	vals := []float64{0.000123456789, 1.0 / 3.0, 0.12 + 0.000001*7}
	for _, v := range vals {
		data, _ := json.Marshal(BatchDone{APIDollars: v})
		var back BatchDone
		json.Unmarshal(data, &back)
		if back.APIDollars != v {
			t.Errorf("dollars %v round-tripped to %v", v, back.APIDollars)
		}
	}
}

// TestWindowPredsCountsEachQuestionOnce pins that coverage counts
// distinct questions: a question journaled twice, in two batches or
// twice in one, must not stand in for a question no batch answered —
// even when every answer is Unknown, which the old count could not tell
// from "not yet answered".
func TestWindowPredsCountsEachQuestionOnce(t *testing.T) {
	unknown := func(n int) []entity.Label {
		p := make([]entity.Label, n)
		for i := range p {
			p[i] = entity.Unknown
		}
		return p
	}
	for _, tc := range []struct {
		name    string
		batches []BatchDone
	}{
		{"two batches", []BatchDone{
			{Window: 0, Batch: 0, Questions: []int{0}, Keys: []string{"k0"}, Pred: unknown(1)},
			{Window: 0, Batch: 1, Questions: []int{0}, Keys: []string{"k0"}, Pred: unknown(1)},
		}},
		{"one batch", []BatchDone{
			{Window: 0, Batch: 0, Questions: []int{0, 0}, Keys: []string{"k0", "k0"}, Pred: unknown(2)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := OpenJournal(context.Background(), dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.WindowStart(WindowStart{Index: 0, Size: 2}); err != nil {
				t.Fatal(err)
			}
			for _, b := range tc.batches {
				if err := j.BatchDone(b); err != nil {
					t.Fatal(err)
				}
			}
			j, st := reopen(t, j, dir)
			defer j.Close()
			r, err := st.Replay(WindowStart{Index: 0, Size: 2}, []string{"k0", "k1"})
			if err != nil {
				t.Fatal(err)
			}
			if r.Preds != nil {
				t.Errorf("Replay preds = %v; question 1 was never answered", r.Preds)
			}
			if st.WindowComplete(0, 2) {
				t.Error("window reported complete with question 1 unanswered")
			}
		})
	}
}

// TestReplayMismatchNamesFirstBatch pins that a key mismatch names the
// first mismatching batch in billing order, every time: the records are
// read in ascending batch order, not in map order.
func TestReplayMismatchNamesFirstBatch(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WindowStart(WindowStart{Index: 0, Size: 4}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		if err := j.BatchDone(BatchDone{Window: 0, Batch: b, Questions: []int{2 * b, 2*b + 1},
			Keys: []string{"old0", "old1"}, Pred: []entity.Label{entity.Match, entity.NonMatch}}); err != nil {
			t.Fatal(err)
		}
	}
	j, st := reopen(t, j, dir)
	defer j.Close()
	for i := 0; i < 50; i++ {
		_, err := st.Replay(WindowStart{Index: 0, Size: 4}, []string{"k0", "k1", "k2", "k3"})
		if !errors.Is(err, ErrRunMismatch) || !strings.Contains(err.Error(), "batch 0 ") {
			t.Fatalf("call %d: err = %v, want batch 0's ErrRunMismatch", i, err)
		}
	}
}

// TestReplayChecksLayout pins the window layout check: the journaled
// start must agree with the live window on offset, size, and — when it
// carries a partition key — key and stream position.
func TestReplayChecksLayout(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	start := WindowStart{Index: 0, Offset: 0, Size: 1, Global: 3, Key: "k0"}
	if err := j.WindowStart(start); err != nil {
		t.Fatal(err)
	}
	if err := j.BatchDone(BatchDone{Window: 0, Batch: 0, Questions: []int{0}, Keys: []string{"k0"},
		Pred: []entity.Label{entity.Match}}); err != nil {
		t.Fatal(err)
	}
	j, st := reopen(t, j, dir)
	defer j.Close()
	keys := []string{"k0"}
	if r, err := st.Replay(start, keys); err != nil || r.Preds == nil {
		t.Fatalf("matching layout: preds %v, err %v", r.Preds, err)
	}
	// Fewer keys than the window's size is a mismatch, not a panic.
	if _, err := st.Replay(start, []string{}); !errors.Is(err, ErrRunMismatch) {
		t.Errorf("short keys: err = %v, want ErrRunMismatch", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*WindowStart)
		want string
	}{
		{"offset", func(w *WindowStart) { w.Offset = 5 }, "offset 0 size 1, stream has offset 5 size 1"},
		{"size", func(w *WindowStart) { w.Size = 2 }, "offset 0 size 1, stream has offset 0 size 2"},
		{"key", func(w *WindowStart) { w.Key = "k9" }, `partition key "k0", stream has "k9"`},
		{"global", func(w *WindowStart) { w.Global = 4 }, "stream position 3, stream has 4"},
	} {
		at := start
		tc.edit(&at)
		live := keys
		if at.Size == 2 {
			live = []string{"k0", "k1"}
		}
		if _, err := st.Replay(at, live); !errors.Is(err, ErrRunMismatch) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrRunMismatch with %q", tc.name, err, tc.want)
		}
	}
}

// A window with no journaled record reads as absent on a loaded state
// and on a nil one: no batches, no start record, not complete.
func TestWindowNeverJournaled(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WindowStart(WindowStart{Index: 0, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.BatchDone(BatchDone{Window: 0, Batch: 0, Questions: []int{0}, Keys: []string{"k0"},
		Pred: []entity.Label{entity.Match}, Calls: 1}); err != nil {
		t.Fatal(err)
	}
	j, st := reopen(t, j, dir)
	defer j.Close()
	for name, s := range map[string]*RunState{"loaded": st, "nil": nil} {
		if got := s.WindowBatches(1); got != nil {
			t.Errorf("%s: WindowBatches(1) = %+v, want nil", name, got)
		}
		if ws, ok := s.WindowStart(1); ok {
			t.Errorf("%s: WindowStart(1) = %+v, true; want false", name, ws)
		}
		if s.WindowComplete(1, 1) {
			t.Errorf("%s: WindowComplete(1, 1) = true", name)
		}
	}
}

// A batch record naming a question at or past the window's size does
// not complete the window, and reading it does not panic.
func TestWindowCompleteRejectsQuestionAtSize(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WindowStart(WindowStart{Index: 0, Size: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.BatchDone(BatchDone{Window: 0, Batch: 0, Questions: []int{0, 1, 2}, Keys: []string{"k0", "k1", "k2"},
		Pred: []entity.Label{entity.Match, entity.NonMatch, entity.Match}, Calls: 1}); err != nil {
		t.Fatal(err)
	}
	j, st := reopen(t, j, dir)
	defer j.Close()
	if st.WindowComplete(0, 2) {
		t.Error("window whose batch names question 2 of 2 reported complete")
	}
}
