package runstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"batcher/internal/cost"
	"batcher/internal/entity"
)

// ErrRunMismatch is returned when a journal's recorded run fingerprint
// (or its per-window candidate layout) does not match the run being
// resumed: different tables, model, seed, window size, or pool mode.
// Resuming such a run would silently splice predictions from one
// configuration into another.
var ErrRunMismatch = errors.New("runstore: journal does not match this run")

// ErrOutOfOrder reports an append that would break the journal's
// ordered-commit invariant: window starts arrive in ascending index
// order with no gaps, and a batch is only recorded for a window that
// already started. The invariant is what makes a journal — whatever
// concurrency produced the results — always a contiguous prefix of the
// run, which is exactly what resume's replay-then-continue logic
// assumes. The pipeline executor's ordered committer relies on the
// storage layer enforcing it rather than promising it.
var ErrOutOfOrder = errors.New("runstore: journal append out of window order")

// RunMeta fingerprints a run's configuration and inputs. It is the first
// record of every journal; on resume the current run's fingerprint must
// be Compatible with the journaled one.
type RunMeta struct {
	// RunID names the run (the journal directory's base name by
	// convention).
	RunID string `json:"run_id"`
	// Model, Seed, BatchSize, NumDemos, Batching, and Selection pin the
	// matcher configuration that produced the journaled predictions.
	Model     string `json:"model"`
	Seed      int64  `json:"seed"`
	BatchSize int    `json:"batch_size"`
	NumDemos  int    `json:"num_demos"`
	Batching  string `json:"batching"`
	Selection string `json:"selection"`
	// StreamWindow is the pipeline window size (0 = collected mode).
	StreamWindow int `json:"stream_window"`
	// SharedPool records whether a caller-supplied demonstration pool was
	// used (true) or each window self-pooled (false).
	SharedPool bool `json:"shared_pool"`
	// RowsA/RowsB and TableHash fingerprint the input tables.
	RowsA     int    `json:"rows_a"`
	RowsB     int    `json:"rows_b"`
	TableHash string `json:"table_hash"`
	// Cascade fingerprints the cascade configuration (pre-filter weights,
	// thresholds, cheap model, escalation margin); empty on single-model
	// runs, which keeps old journals compatible. Resuming a cascade run
	// under different routing would replay tier decisions that the new
	// configuration would not have made.
	Cascade string `json:"cascade,omitempty"`
	// Shard fingerprints the partition this journal covers, in "i/N"
	// form; empty on unsharded runs. Together with TableHash and
	// StreamWindow it pins the full partition: which windows of which
	// candidate stream this shard owns. Resuming under a different
	// shard spec fails with ErrRunMismatch, and the merge coordinator
	// requires all N shard stamps before combining journals.
	Shard string `json:"shard,omitempty"`
	// CreatedUnix is when the journal was first written. Informational
	// only; it does not participate in Compatible.
	CreatedUnix int64 `json:"created_unix"`
}

// Compatible reports whether a resume under meta other can safely replay
// this journal. Everything but the creation time must match.
func (m RunMeta) Compatible(other RunMeta) bool {
	m.CreatedUnix = 0
	other.CreatedUnix = 0
	return m == other
}

// WindowStart records that a window's resolution began: its position in
// the candidate stream and the demonstrations annotated (billed) for it.
type WindowStart struct {
	// Index is the window's ordinal in the run (0-based).
	Index int `json:"index"`
	// Offset is the global candidate offset of the window's first pair.
	Offset int `json:"offset"`
	// Size is the number of candidate pairs in the window.
	Size int `json:"size"`
	// Labeled lists the annotated pool indices — pool-global under a
	// shared pool, window-local otherwise.
	Labeled []int `json:"labeled,omitempty"`
	// Global is the window's ordinal in the full candidate stream. On
	// unsharded runs it equals Index; on a shard run Index counts only
	// the windows this shard owns while Global keeps the stream
	// position, which is what lets the merge coordinator reassemble N
	// shard journals into one stream-ordered journal.
	Global int `json:"global,omitempty"`
	// Key is the window's partition key: the pair key of its first
	// candidate (before any cascade routing). The shard assignment is a
	// pure function of Key, so the coordinator can re-verify that every
	// journaled window really belongs to the shard that recorded it.
	Key string `json:"key,omitempty"`
}

// RunDone is the journal's terminal record: the run saw the whole
// candidate stream and journaled every window it owned. Shard merging
// requires it — without a terminal record a journal that simply stops
// is indistinguishable from one that crashed before its last windows.
type RunDone struct {
	// Windows is the total number of windows in the candidate stream,
	// owned or not. Every shard of one run must agree on it.
	Windows int `json:"windows"`
	// Owned is the number of windows this run journaled (equal to
	// Windows on unsharded runs).
	Owned int `json:"owned"`
}

// BatchDone records one completed (billed and answered) batch: the unit
// of durable progress. Its ledger delta is replayed on resume via
// cost.Ledger.MergeAPI so every billed call is accounted exactly once.
type BatchDone struct {
	// Window and Batch locate the batch within the run.
	Window int `json:"window"`
	Batch  int `json:"batch"`
	// Questions are the window-local indices this batch answered.
	Questions []int `json:"questions"`
	// Keys are the answered pairs' identities (entity.Pair.Key), aligned
	// with Questions; resume verifies them against the live candidate
	// stream before replaying.
	Keys []string `json:"keys"`
	// Pred holds one label per question, aligned with Questions.
	Pred []entity.Label `json:"pred"`
	// Calls, InputTokens, OutputTokens, and APIDollars are the batch's
	// billed usage. A batch served entirely from cache records zero
	// calls and zero tokens.
	Calls        int     `json:"calls"`
	InputTokens  int     `json:"in_tokens"`
	OutputTokens int     `json:"out_tokens"`
	APIDollars   float64 `json:"api_dollars"`
	// TrimmedDemos counts demonstrations dropped to fit the context
	// window, preserved so resumed aggregate reports match.
	TrimmedDemos int `json:"trimmed_demos,omitempty"`
	// Tier names the tier that produced Pred on a cascade run ("cheap"
	// or "expensive"); empty on single-model runs. Resume replays the
	// recorded tier decision rather than re-deciding.
	Tier string `json:"tier,omitempty"`
	// Tiers is the batch's per-tier usage split (an escalated batch
	// carries both a cheap and an expensive bucket); empty on
	// single-model runs.
	Tiers []cost.TierUsage `json:"tiers,omitempty"`
	// Degraded marks a placeholder answered by the degradation policy
	// (core.DegradePolicy) instead of the LLM, after a circuit breaker
	// refused the call. The record preserves whatever spend the batch
	// made before the refusal (a cascade's cheap-tier attempt), but its
	// predictions do not count toward window completeness: a later
	// resume re-resolves the batch — repairing it — and journals the
	// real answer as a separate, authoritative record.
	Degraded bool `json:"degraded,omitempty"`
}

// Ledger reconstructs the batch's API cost delta, including the
// per-tier split on cascade runs.
func (b *BatchDone) Ledger() cost.Ledger {
	return cost.RestoreAPITiered(b.Calls, b.InputTokens, b.OutputTokens, b.APIDollars, b.Tiers)
}

// journalRecord is the tagged union written to disk.
type journalRecord struct {
	Meta   *RunMeta     `json:"meta,omitempty"`
	Window *WindowStart `json:"window,omitempty"`
	Batch  *BatchDone   `json:"batch,omitempty"`
	Done   *RunDone     `json:"done,omitempty"`
}

// windowState groups the journaled records of one window. batches
// holds authoritative answers; degraded holds placeholder records
// whose spend must be preserved but whose predictions are repairable.
type windowState struct {
	start    *WindowStart
	batches  map[int]*BatchDone
	degraded map[int]*BatchDone
}

func newWindowState() *windowState {
	return &windowState{batches: map[int]*BatchDone{}, degraded: map[int]*BatchDone{}}
}

// RunState is the parsed content of a journal: what a resumed run may
// replay. Duplicate records (a window re-run after a mid-window crash
// journals its batches again, the replayed ones with zero usage) resolve
// first-write-wins, so the record carrying the real billed usage is the
// one that survives arbitrarily many crash/resume cycles.
type RunState struct {
	meta    *RunMeta
	windows map[int]*windowState
	done    *RunDone
}

// Meta returns the journaled run fingerprint, if any.
func (s *RunState) Meta() (RunMeta, bool) {
	if s == nil || s.meta == nil {
		return RunMeta{}, false
	}
	return *s.meta, true
}

// Done returns the journal's terminal record, if the run it records ran
// to completion.
func (s *RunState) Done() (RunDone, bool) {
	if s == nil || s.done == nil {
		return RunDone{}, false
	}
	return *s.done, true
}

// Empty reports whether the journal held no records at all.
func (s *RunState) Empty() bool {
	return s == nil || (s.meta == nil && len(s.windows) == 0 && s.done == nil)
}

// Windows returns the number of windows with journaled records.
func (s *RunState) Windows() int {
	if s == nil {
		return 0
	}
	return len(s.windows)
}

// WindowBatches returns window i's journaled batch records in ascending
// batch order. The merge coordinator uses it to re-journal a shard's
// windows under their global coordinates; the records are copies safe
// to modify.
func (s *RunState) WindowBatches(i int) []BatchDone {
	w := s.window(i)
	if w == nil || (len(w.batches) == 0 && len(w.degraded) == 0) {
		return nil
	}
	order := batchOrder(w)
	out := make([]BatchDone, 0, len(order))
	for _, bi := range order {
		// Degraded placeholder first: it recorded the spend the batch
		// made before the refusal, which the original run billed before
		// any repair re-billed the remainder.
		if d := w.degraded[bi]; d != nil {
			out = append(out, *d)
		}
		if b := w.batches[bi]; b != nil {
			out = append(out, *b)
		}
	}
	return out
}

// batchOrder returns the union of a window's batch indices — answered
// and degraded — in ascending order.
func batchOrder(w *windowState) []int {
	order := make([]int, 0, len(w.batches)+len(w.degraded))
	for bi := range w.batches {
		order = append(order, bi)
	}
	for bi := range w.degraded {
		if _, dup := w.batches[bi]; !dup {
			order = append(order, bi)
		}
	}
	sort.Ints(order)
	return order
}

func (s *RunState) window(i int) *windowState {
	if s == nil {
		return nil
	}
	return s.windows[i]
}

// WindowStart returns window i's start record, if journaled.
func (s *RunState) WindowStart(i int) (WindowStart, bool) {
	w := s.window(i)
	if w == nil || w.start == nil {
		return WindowStart{}, false
	}
	return *w.start, true
}

// WindowComplete reports whether every one of the window's size
// questions has a journaled prediction — the condition for replaying the
// window without invoking the matcher at all.
func (s *RunState) WindowComplete(i, size int) bool {
	_, ok := s.WindowPreds(i, size)
	return ok
}

// WindowPreds assembles the window's predictions in question order from
// its journaled batches. ok is false unless the batches cover all size
// questions exactly. Coverage counts distinct questions: an answer,
// Unknown included, journaled twice never stands in for a question no
// batch answered.
func (s *RunState) WindowPreds(i, size int) ([]entity.Label, bool) {
	w := s.window(i)
	if w == nil || size <= 0 {
		return nil, false
	}
	preds := make([]entity.Label, size)
	seen := make([]bool, size)
	covered := 0
	for _, b := range w.batches {
		for k, qi := range b.Questions {
			if qi < 0 || qi >= size || k >= len(b.Pred) {
				return nil, false
			}
			if !seen[qi] {
				seen[qi] = true
				covered++
			}
			preds[qi] = b.Pred[k]
		}
	}
	if covered != size {
		return nil, false
	}
	return preds, true
}

// WindowUsage sums the window's journaled API usage into a ledger delta
// suitable for cost.Ledger.MergeAPI, plus the total trimmed-demo count.
// Batches are folded in ascending batch order — the order the original
// run billed them — so the floating-point dollar total reproduces the
// uninterrupted run's bit for bit.
func (s *RunState) WindowUsage(i int) (cost.Ledger, int) {
	var l cost.Ledger
	trimmed := 0
	w := s.window(i)
	if w == nil {
		return l, 0
	}
	for _, bi := range batchOrder(w) {
		// A degraded placeholder's spend (the pre-refusal cheap-tier
		// attempt) folds in before the repair's record, matching the
		// order the original run billed it. Its trims only count when
		// no repair exists: a repair re-derives the same trims itself.
		if d := w.degraded[bi]; d != nil {
			dl := d.Ledger()
			l.MergeAPI(&dl)
			if w.batches[bi] == nil {
				trimmed += d.TrimmedDemos
			}
		}
		if b := w.batches[bi]; b != nil {
			bl := b.Ledger()
			l.MergeAPI(&bl)
			trimmed += b.TrimmedDemos
		}
	}
	return l, trimmed
}

// VerifyWindowKeys checks every journaled batch of window i against the
// live candidate stream's pair keys for that window. A mismatch means
// the journal belongs to a different candidate stream (different
// blocker, tables, or ordering) and replaying it would attach
// predictions to the wrong pairs.
func (s *RunState) VerifyWindowKeys(i int, keys []string) error {
	w := s.window(i)
	if w == nil {
		return nil
	}
	if w.start != nil && w.start.Size != len(keys) {
		return fmt.Errorf("%w: window %d journaled %d pairs, stream has %d",
			ErrRunMismatch, i, w.start.Size, len(keys))
	}
	verify := func(b *BatchDone) error {
		for k, qi := range b.Questions {
			if qi < 0 || qi >= len(keys) || k >= len(b.Keys) {
				return fmt.Errorf("%w: window %d batch %d references question %d outside the window",
					ErrRunMismatch, i, b.Batch, qi)
			}
			if b.Keys[k] != keys[qi] {
				return fmt.Errorf("%w: window %d batch %d pair %d is %q in the journal but %q in the stream",
					ErrRunMismatch, i, b.Batch, qi, b.Keys[k], keys[qi])
			}
		}
		return nil
	}
	for _, b := range w.batches {
		if err := verify(b); err != nil {
			return err
		}
	}
	for _, b := range w.degraded {
		if err := verify(b); err != nil {
			return err
		}
	}
	return nil
}

type batchKey struct{ window, batch int }

// Journal is a durable, append-only record of one run's progress. It is
// safe for concurrent use (batches may complete on several goroutines)
// and idempotent: re-recording an already-journaled window or batch is a
// no-op, which is what makes crash/resume cycles converge.
type Journal struct {
	mu      sync.Mutex
	dir     string
	log     *segLog
	state   *RunState
	seen    map[batchKey]bool
	degSeen map[batchKey]bool
	wseen   map[int]bool
	dseen   bool
}

// OpenJournal opens (creating if necessary) the run journal stored in
// dir, loading any existing records for resume. The caller decides what
// an existing non-empty journal means: a resume (replay State) or a
// collision (refuse and pick a new run ID). ctx bounds the replay of
// existing segments; cancelling it abandons the open with no journal.
func OpenJournal(ctx context.Context, dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	state := &RunState{windows: map[int]*windowState{}}
	seen := map[batchKey]bool{}
	degSeen := map[batchKey]bool{}
	wseen := map[int]bool{}
	last, err := readSegments(ctx, dir, "journal", func(rec *journalRecord) error {
		switch {
		case rec.Meta != nil:
			if state.meta == nil { // first wins
				state.meta = rec.Meta
			}
		case rec.Window != nil:
			w := state.windows[rec.Window.Index]
			if w == nil {
				w = newWindowState()
				state.windows[rec.Window.Index] = w
			}
			if w.start == nil { // first wins
				w.start = rec.Window
			}
			wseen[rec.Window.Index] = true
		case rec.Batch != nil:
			k := batchKey{rec.Batch.Window, rec.Batch.Batch}
			w := state.windows[rec.Batch.Window]
			if w == nil {
				w = newWindowState()
				state.windows[rec.Batch.Window] = w
			}
			switch {
			case rec.Batch.Degraded:
				// Degraded placeholders live beside the real records: a
				// later authoritative answer for the same batch does not
				// erase the spend the placeholder preserved.
				if !degSeen[k] { // first wins
					w.degraded[rec.Batch.Batch] = rec.Batch
					degSeen[k] = true
				}
			case !seen[k]: // first wins: the real billed usage
				w.batches[rec.Batch.Batch] = rec.Batch
				seen[k] = true
			}
		case rec.Done != nil:
			if state.done == nil { // first wins
				state.done = rec.Done
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Journal{
		dir:     dir,
		log:     openSegLog(dir, "journal", last),
		state:   state,
		seen:    seen,
		degSeen: degSeen,
		wseen:   wseen,
		dseen:   state.done != nil,
	}, nil
}

// OpenDerivedJournal opens the journal stored in dir, as OpenJournal
// does, for writing a copy of records that are already durable somewhere
// else (the shard journals a merge reads). Such a journal protects no
// spend of its own — losing it costs a re-merge, not a re-billed call —
// so the live flush policy is suspended: neither WriteMeta nor the
// batched append fsyncs. Done and Close still do, so by the time the
// caller can report the copy as complete every byte of it is on disk,
// and a crash before that leaves a journal without a terminal record.
// Segment rotation flushes as always.
func OpenDerivedJournal(ctx context.Context, dir string) (*Journal, error) {
	j, err := OpenJournal(ctx, dir)
	if err != nil {
		return nil, err
	}
	j.log.hold = true
	return j, nil
}

// RunID names the run: by convention the journal directory's base name.
func (j *Journal) RunID() string { return filepath.Base(j.dir) }

// State returns the journal's loaded content. The state reflects the
// records present at open time; records appended through this Journal do
// not appear (a resumed run replays the past, it does not re-read its
// own writes).
func (j *Journal) State() *RunState { return j.state }

// WriteMeta journals the run fingerprint. It is a no-op if a meta record
// was already loaded; verifying compatibility is the caller's job.
func (j *Journal) WriteMeta(m RunMeta) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.meta != nil {
		return nil
	}
	if err := j.log.append(journalRecord{Meta: &m}); err != nil {
		return err
	}
	// Make the fingerprint durable before any batch spend is journaled
	// against it (a derived journal records no spend of its own).
	return j.log.policySync()
}

// WindowStart journals a window's start (its layout and annotation
// spend). Idempotent per window index. Windows must start in ascending
// index order with no gaps (counting windows loaded at open), or the
// append fails with ErrOutOfOrder.
func (j *Journal) WindowStart(w WindowStart) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wseen[w.Index] {
		return nil
	}
	if w.Index > 0 && !j.wseen[w.Index-1] {
		return fmt.Errorf("%w: window %d started before window %d", ErrOutOfOrder, w.Index, w.Index-1)
	}
	j.wseen[w.Index] = true
	return j.log.append(journalRecord{Window: &w})
}

// BatchDone journals one completed batch. Idempotent per (window, batch):
// replayed batches from a resumed partial window never overwrite the
// original record carrying the real billed usage. The batch's window
// must have started (WindowStart), or the append fails with
// ErrOutOfOrder. Degraded placeholders are tracked separately from
// authoritative answers: a placeholder never blocks the later repair
// record for the same batch, and vice versa an answered batch is never
// demoted by a placeholder.
func (j *Journal) BatchDone(b BatchDone) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	k := batchKey{b.Window, b.Batch}
	if b.Degraded && j.degSeen[k] {
		return nil
	}
	if !b.Degraded && j.seen[k] {
		return nil
	}
	if !j.wseen[b.Window] {
		return fmt.Errorf("%w: window %d batch %d recorded before the window started", ErrOutOfOrder, b.Window, b.Batch)
	}
	if b.Degraded {
		j.degSeen[k] = true
	} else {
		j.seen[k] = true
	}
	return j.log.append(journalRecord{Batch: &b})
}

// Done journals the run's terminal record: the whole candidate stream
// was seen and every owned window is journaled. Idempotent — a resumed
// complete run re-announcing completion is a no-op, so the first
// record's counts survive arbitrarily many crash/resume cycles. The
// record is synced immediately: completion is the one fact the merge
// coordinator cannot infer from a torn tail.
func (j *Journal) Done(d RunDone) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dseen {
		return nil
	}
	if err := j.log.append(journalRecord{Done: &d}); err != nil {
		return err
	}
	j.dseen = true
	return j.log.sync()
}

// Sync forces buffered records to durable storage immediately instead of
// waiting for the fsync batch to fill.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.sync()
}

// Syncs returns how many fsyncs this Journal has issued since it was
// opened: the durability tax as a count, for benchmarks and reports.
func (j *Journal) Syncs() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.syncs
}

// Close flushes, fsyncs, and closes the journal. The Journal must not be
// used afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.close()
}
