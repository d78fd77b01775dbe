package runstore

import (
	"context"
	"path/filepath"
	"testing"

	"batcher/internal/cost"
	"batcher/internal/entity"
)

// reopen closes j and reopens the journal to load its parsed state.
func reopen(t *testing.T, j *Journal, dir string) (*Journal, *RunState) {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	return j2, j2.State()
}

// A degraded placeholder must never complete its window: the point of
// journaling it is that a resume re-resolves the batch. Its spend and
// trims still replay while it is the only record for the batch.
func TestDegradedRecordDoesNotCompleteWindow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	j, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WindowStart(WindowStart{Index: 0, Size: 2}); err != nil {
		t.Fatal(err)
	}
	deg := BatchDone{
		Window: 0, Batch: 0,
		Questions: []int{0, 1}, Keys: []string{"a", "b"},
		Pred:  []entity.Label{entity.Unknown, entity.Unknown},
		Calls: 1, InputTokens: 7, OutputTokens: 3, APIDollars: 0.25,
		TrimmedDemos: 2, Degraded: true,
	}
	if err := j.BatchDone(deg); err != nil {
		t.Fatal(err)
	}
	j, st := reopen(t, j, dir)
	defer j.Close()

	if st.WindowComplete(0, 2) {
		t.Error("window with only a degraded placeholder reported complete")
	}
	r, err := st.Replay(WindowStart{Index: 0, Size: 2}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Preds != nil {
		t.Error("Replay served a degraded placeholder's predictions")
	}
	if got := st.WindowBatches(0); len(got) != 1 || !got[0].Degraded {
		t.Fatalf("WindowBatches = %+v, want the one degraded record", got)
	}
	usage, trimmed := r.Usage, r.Trimmed
	if usage.Calls() != 1 || usage.InputTokens() != 7 || usage.API() != 0.25 {
		t.Errorf("usage = %d calls, %d in, $%v; want the placeholder's pre-refusal spend", usage.Calls(), usage.InputTokens(), usage.API())
	}
	if trimmed != 2 {
		t.Errorf("trimmed = %d, want the placeholder's 2 while it is the only record", trimmed)
	}
}

// A repair record for the same batch completes the window; the
// placeholder's spend folds in first (the order the run billed it) and
// its trims stop counting — the repair re-derived them itself.
func TestDegradedThenRepairFoldOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	j, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WindowStart(WindowStart{Index: 0, Size: 2}); err != nil {
		t.Fatal(err)
	}
	deg := BatchDone{
		Window: 0, Batch: 0,
		Questions: []int{0, 1}, Keys: []string{"a", "b"},
		Pred:  []entity.Label{entity.Unknown, entity.Unknown},
		Calls: 1, InputTokens: 7, OutputTokens: 3, APIDollars: 0.25,
		TrimmedDemos: 2, Degraded: true,
		Tiers: []cost.TierUsage{{Tier: cost.TierCheap, Calls: 1, InputTokens: 7, OutputTokens: 3, Dollars: 0.25}},
	}
	if err := j.BatchDone(deg); err != nil {
		t.Fatal(err)
	}
	repair := BatchDone{
		Window: 0, Batch: 0,
		Questions: []int{0, 1}, Keys: []string{"a", "b"},
		Pred:  []entity.Label{entity.Match, entity.NonMatch},
		Calls: 1, InputTokens: 11, OutputTokens: 5, APIDollars: 0.75,
		TrimmedDemos: 3,
		Tiers:        []cost.TierUsage{{Tier: cost.TierExpensive, Calls: 1, InputTokens: 11, OutputTokens: 5, Dollars: 0.75}},
	}
	if err := j.BatchDone(repair); err != nil {
		t.Fatal(err)
	}
	j, st := reopen(t, j, dir)
	defer j.Close()

	r, err := st.Replay(WindowStart{Index: 0, Size: 2}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	preds := r.Preds
	if preds == nil {
		t.Fatal("repaired window did not complete")
	}
	if preds[0] != entity.Match || preds[1] != entity.NonMatch {
		t.Errorf("preds = %v, want the repair's answers", preds)
	}
	got := st.WindowBatches(0)
	if len(got) != 2 || !got[0].Degraded || got[1].Degraded {
		t.Fatalf("WindowBatches order = %+v, want placeholder then repair", got)
	}
	usage, trimmed := r.Usage, r.Trimmed
	if usage.Calls() != 2 || usage.InputTokens() != 18 || usage.OutputTokens() != 8 {
		t.Errorf("usage = %d calls %d/%d tokens, want both records summed", usage.Calls(), usage.InputTokens(), usage.OutputTokens())
	}
	if usage.API() != 0.25+0.75 {
		t.Errorf("api dollars = %v, want placeholder-then-repair fold", usage.API())
	}
	if tiers := usage.TierBreakdown(); len(tiers) != 2 {
		t.Errorf("tier breakdown = %+v, want both tiers preserved", tiers)
	}
	if trimmed != 3 {
		t.Errorf("trimmed = %d, want the repair's 3 only", trimmed)
	}
}

// First-write-wins holds independently per record kind: a second
// placeholder never clobbers the first, and a placeholder journaled
// after an authoritative answer never demotes it.
func TestDegradedIdempotencyIsSeparate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	j, err := OpenJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.WindowStart(WindowStart{Index: 0, Size: 1}); err != nil {
		t.Fatal(err)
	}
	final := BatchDone{
		Window: 0, Batch: 0, Questions: []int{0}, Keys: []string{"a"},
		Pred: []entity.Label{entity.Match}, Calls: 1, APIDollars: 0.5,
	}
	if err := j.BatchDone(final); err != nil {
		t.Fatal(err)
	}
	// A replayed run's degraded placeholder for the already-answered
	// batch must append (its spend is new information) exactly once.
	deg := final
	deg.Degraded = true
	deg.Pred = []entity.Label{entity.Unknown}
	deg.APIDollars = 0.125
	for i := 0; i < 3; i++ {
		if err := j.BatchDone(deg); err != nil {
			t.Fatal(err)
		}
	}
	// And a second authoritative record stays a no-op.
	dup := final
	dup.APIDollars = 99
	if err := j.BatchDone(dup); err != nil {
		t.Fatal(err)
	}
	j, st := reopen(t, j, dir)
	defer j.Close()

	r, err := st.Replay(WindowStart{Index: 0, Size: 1}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Preds == nil || r.Preds[0] != entity.Match {
		t.Fatalf("preds = %v, want the first authoritative answer", r.Preds)
	}
	if usage := r.Usage; usage.API() != 0.125+0.5 {
		t.Errorf("api dollars = %v, want one placeholder + the first answer", usage.API())
	}
	if got := st.WindowBatches(0); len(got) != 2 {
		t.Errorf("WindowBatches = %d records, want 2 (dedup per kind)", len(got))
	}
}
