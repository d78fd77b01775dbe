package runstore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"batcher/internal/cost"
	"batcher/internal/entity"
)

// ErrRunMismatch is returned when a journal's recorded run fingerprint
// (or its per-window candidate layout) does not match the run being
// resumed: a different model, seed, window size or pool mode, tables
// with other row counts or record IDs, or journaled pairs whose record
// IDs differ from the live stream's. Record contents are not compared.
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
	// Seven matcher settings are not fingerprinted — the extractor, the
	// distance, CoverPercentile, ClusterEpsPercentile, ClusterMinPts,
	// DistanceSampleCap and TaskDescription — and neither the batcher
	// facade nor ermatch can set them: only the paper harness and tests
	// do, on core.Config, and neither journals a run. The one input a
	// resume does not bind is the demonstration pool's contents:
	// SharedPool records only whether a pool was given.
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
	return cost.RestoreAPI(b.Calls, b.InputTokens, b.OutputTokens, b.APIDollars, b.Tiers)
}

// journalRecord is the tagged union written to disk.
type journalRecord struct {
	Meta   *RunMeta     `json:"meta,omitempty"`
	Window *WindowStart `json:"window,omitempty"`
	Batch  *BatchDone   `json:"batch,omitempty"`
	Done   *RunDone     `json:"done,omitempty"`
}

// recordKey names what a record is the first of. Every record has one
// key — the meta, the terminal record, window i's start, or batch b of
// window i's answer or its degraded placeholder — and a journal keeps
// the first record of each key only. An answer and a placeholder have
// different keys, so a placeholder never blocks its batch's repair and
// an answer is never demoted by a later placeholder.
type recordKey struct {
	kind          recordKind
	window, batch int
}

type recordKind uint8

const (
	metaKey recordKind = iota
	doneKey
	startKey
	answerKey
	placeholderKey
)

// batchPair holds one batch index's records: the first degraded
// placeholder and the first authoritative answer, either possibly nil.
type batchPair struct {
	placeholder, answer *BatchDone
}

// windowState groups the journaled records of one window.
type windowState struct {
	start   *WindowStart
	batches map[int]batchPair
}

// ordered returns the window's batch pairs in ascending batch order,
// the order the run billed them.
func (w *windowState) ordered() []batchPair {
	out := make([]batchPair, 0, len(w.batches))
	for _, p := range w.batches {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b batchPair) int { return cmp.Compare(a.index(), b.index()) })
	return out
}

func (p batchPair) index() int {
	if p.answer != nil {
		return p.answer.Batch
	}
	return p.placeholder.Batch
}

// RunState is the parsed content of a journal: what a resumed run may
// replay. Records are filed by key (recordKey) and the first record of
// a key wins, so when a window re-run after a mid-window crash journals
// its batches again — the replayed ones with zero usage — the record
// carrying the real billed usage survives arbitrarily many crash/resume
// cycles.
type RunState struct {
	meta    *RunMeta
	windows map[int]*windowState
	done    *RunDone
}

// add files rec under its key unless that key already holds a record.
func (s *RunState) add(rec *journalRecord) {
	switch {
	case rec.Meta != nil:
		if s.meta == nil {
			s.meta = rec.Meta
		}
	case rec.Window != nil:
		if w := s.open(rec.Window.Index); w.start == nil {
			w.start = rec.Window
		}
	case rec.Batch != nil:
		b := rec.Batch
		w := s.open(b.Window)
		p := w.batches[b.Batch]
		slot := &p.answer
		if b.Degraded {
			slot = &p.placeholder
		}
		if *slot == nil {
			*slot = b
			w.batches[b.Batch] = p
		}
	case rec.Done != nil:
		if s.done == nil {
			s.done = rec.Done
		}
	}
}

// open returns window i's state, creating it empty if needed.
func (s *RunState) open(i int) *windowState {
	w := s.windows[i]
	if w == nil {
		w = &windowState{batches: map[int]batchPair{}}
		s.windows[i] = w
	}
	return w
}

// has reports whether key k holds a record.
func (s *RunState) has(k recordKey) bool {
	switch k.kind {
	case metaKey:
		return s.meta != nil
	case doneKey:
		return s.done != nil
	}
	w := s.windows[k.window]
	switch {
	case w == nil:
		return false
	case k.kind == startKey:
		return w.start != nil
	case k.kind == answerKey:
		return w.batches[k.batch].answer != nil
	}
	return w.batches[k.batch].placeholder != nil
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

// WindowBatches returns window i's journaled batch records in billing
// order: ascending batch, a degraded placeholder before its batch's
// answer (the placeholder recorded the spend the batch made before the
// refusal, which the original run billed before any repair re-billed
// the remainder). The merge coordinator uses it to re-journal a shard's
// windows under their global coordinates. The records are copies whose
// fields may be set; their slices are the loaded state's and must not
// be written.
func (s *RunState) WindowBatches(i int) []BatchDone {
	w := s.window(i)
	if w == nil || len(w.batches) == 0 {
		return nil
	}
	out := make([]BatchDone, 0, len(w.batches))
	for _, p := range w.ordered() {
		if p.placeholder != nil {
			out = append(out, *p.placeholder)
		}
		if p.answer != nil {
			out = append(out, *p.answer)
		}
	}
	return out
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
// questions has a journaled answer — the condition for replaying the
// window without invoking the matcher at all. It reads the records as
// Replay does, without the pair keys to check them against.
func (s *RunState) WindowComplete(i, size int) bool {
	w := s.window(i)
	if w == nil {
		return false
	}
	r, err := w.replay(i, size, nil)
	return err == nil && r.Preds != nil
}

// Replay is what a window's journaled records give a resumed run.
type Replay struct {
	// Preds holds the window's predictions in question order; nil
	// unless the authoritative answers cover every question.
	Preds []entity.Label
	// Usage is the window's journaled API spend, placeholders included,
	// as a ledger delta for cost.Ledger.MergeAPI.
	Usage cost.Ledger
	// Trimmed counts the demonstrations the journaled batches dropped
	// to fit the context window.
	Trimmed int
	// Labeled is the window start's annotated pool indices.
	Labeled []int
}

// Replay checks window at.Index's journaled records against the live
// window — at's offset, size, partition key and stream position, and
// keys, its at.Size pair keys — and returns what they give a resumed
// run. A mismatch (ErrRunMismatch) means the journal belongs to a
// different candidate stream (different blocker, tables, or ordering)
// and replaying it would attach predictions to the wrong pairs. A
// window with no journaled records replays nothing.
//
// The batch records are read in one pass in billing order, a degraded
// placeholder before its batch's answer: that order names the first
// mismatching batch, and folds the dollar total exactly as the
// original run billed it, so it reproduces the uninterrupted run's bit
// for bit. A placeholder's spend always counts; its trims only count
// when no answer exists (a repair re-derives the same trims itself),
// and its predictions never count. Coverage counts distinct questions:
// an answer, Unknown included, journaled twice never stands in for a
// question no batch answered.
func (s *RunState) Replay(at WindowStart, keys []string) (Replay, error) {
	w := s.window(at.Index)
	if w == nil {
		return Replay{}, nil
	}
	if ws := w.start; ws != nil {
		if ws.Offset != at.Offset || ws.Size != at.Size {
			return Replay{}, fmt.Errorf("%w: window %d journaled at offset %d size %d, stream has offset %d size %d",
				ErrRunMismatch, at.Index, ws.Offset, ws.Size, at.Offset, at.Size)
		}
		if ws.Key != "" && ws.Key != at.Key {
			return Replay{}, fmt.Errorf("%w: window %d journaled with partition key %q, stream has %q",
				ErrRunMismatch, at.Index, ws.Key, at.Key)
		}
		if ws.Key != "" && ws.Global != at.Global {
			return Replay{}, fmt.Errorf("%w: window %d journaled at stream position %d, stream has %d",
				ErrRunMismatch, at.Index, ws.Global, at.Global)
		}
	}
	r, err := w.replay(at.Index, at.Size, keys)
	if err != nil {
		return Replay{}, err
	}
	if w.start != nil {
		r.Labeled = w.start.Labeled
	}
	return r, nil
}

// replay is Replay's walk over window i's batch records; nil keys skip
// the pair-key check.
func (w *windowState) replay(i, size int, keys []string) (Replay, error) {
	var r Replay
	preds := make([]entity.Label, size)
	seen := make([]bool, size)
	covered, whole := 0, size > 0
	for _, p := range w.ordered() {
		for _, b := range [2]*BatchDone{p.placeholder, p.answer} {
			if b == nil {
				continue
			}
			for k, qi := range b.Questions {
				if qi < 0 || qi >= size || (keys != nil && (qi >= len(keys) || k >= len(b.Keys))) {
					return Replay{}, fmt.Errorf("%w: window %d batch %d references question %d outside the window",
						ErrRunMismatch, i, b.Batch, qi)
				}
				if keys != nil && b.Keys[k] != keys[qi] {
					return Replay{}, fmt.Errorf("%w: window %d batch %d pair %d is %q in the journal but %q in the stream",
						ErrRunMismatch, i, b.Batch, qi, b.Keys[k], keys[qi])
				}
			}
			l := b.Ledger()
			r.Usage.MergeAPI(&l)
			if b.Degraded {
				if p.answer == nil {
					r.Trimmed += b.TrimmedDemos
				}
				continue
			}
			r.Trimmed += b.TrimmedDemos
			for k, qi := range b.Questions {
				if k >= len(b.Pred) {
					whole = false
					break
				}
				if !seen[qi] {
					seen[qi] = true
					covered++
				}
				preds[qi] = b.Pred[k]
			}
		}
	}
	if whole && covered == size {
		r.Preds = preds
	}
	return r, nil
}

// Journal is a durable, append-only record of one run's progress. It is
// safe for concurrent use (batches may complete on several goroutines)
// and keeps the key rule of RunState: an append whose key already holds
// a record, loaded at open or appended since, is a no-op, which is what
// makes crash/resume cycles converge.
type Journal struct {
	mu    sync.Mutex
	dir   string
	log   *segLog
	state *RunState
	// appended holds the key of every record appended since open.
	appended map[recordKey]bool
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
	last, err := readSegments(ctx, dir, "journal", func(rec *journalRecord) error {
		state.add(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Journal{
		dir:      dir,
		log:      openSegLog(dir, "journal", last),
		state:    state,
		appended: map[recordKey]bool{},
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

// has reports whether key k holds a record, loaded or appended.
func (j *Journal) has(k recordKey) bool {
	return j.appended[k] || j.state.has(k)
}

// append writes rec, the first record of key k.
func (j *Journal) append(k recordKey, rec journalRecord) error {
	if err := j.log.append(rec); err != nil {
		return err
	}
	j.appended[k] = true
	return nil
}

// WriteMeta journals the run fingerprint. It is a no-op if the journal
// already holds one; verifying compatibility is the caller's job.
func (j *Journal) WriteMeta(m RunMeta) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	k := recordKey{kind: metaKey}
	if j.has(k) {
		return nil
	}
	if err := j.append(k, journalRecord{Meta: &m}); err != nil {
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
	k := recordKey{kind: startKey, window: w.Index}
	if j.has(k) {
		return nil
	}
	if w.Index > 0 && !j.has(recordKey{kind: startKey, window: w.Index - 1}) {
		return fmt.Errorf("%w: window %d started before window %d", ErrOutOfOrder, w.Index, w.Index-1)
	}
	return j.append(k, journalRecord{Window: &w})
}

// BatchDone journals one completed batch. Idempotent per key (answer or
// degraded placeholder of one (window, batch)): replayed batches from a
// resumed partial window never overwrite the original record carrying
// the real billed usage, a placeholder never blocks the later repair
// record for the same batch, and an answered batch is never demoted by
// a placeholder. The batch's window must have started (WindowStart), or
// the append fails with ErrOutOfOrder.
func (j *Journal) BatchDone(b BatchDone) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	k := recordKey{answerKey, b.Window, b.Batch}
	if b.Degraded {
		k.kind = placeholderKey
	}
	if j.has(k) {
		return nil
	}
	if !j.has(recordKey{kind: startKey, window: b.Window}) {
		return fmt.Errorf("%w: window %d batch %d recorded before the window started", ErrOutOfOrder, b.Window, b.Batch)
	}
	return j.append(k, journalRecord{Batch: &b})
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
	k := recordKey{kind: doneKey}
	if j.has(k) {
		return nil
	}
	if err := j.append(k, journalRecord{Done: &d}); err != nil {
		return err
	}
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
