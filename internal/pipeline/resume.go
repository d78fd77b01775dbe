package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"batcher/internal/core"
	"batcher/internal/entity"
	"batcher/internal/runstore"
)

// tableHash fingerprints the input tables by their record IDs so a
// journal cannot be resumed against different data. Attribute contents
// are deliberately excluded: hashing every value of million-row tables
// on each run would dwarf the blocking stage, and ID-stable edits are
// caught later by the per-pair key verification during replay.
func tableHash(tableA, tableB []entity.Record) string {
	h := sha256.New()
	for _, r := range tableA {
		io.WriteString(h, r.ID)
		h.Write([]byte{0})
	}
	h.Write([]byte{1})
	for _, r := range tableB {
		io.WriteString(h, r.ID)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// cascadeStamp fingerprints the run's cascade configuration: the
// pre-filter's trained weights and thresholds plus the tier router's
// cheap model and escalation margin. Empty when neither is in play, so
// single-model journals keep their old fingerprints. A resume whose
// stamp differs would replay routing and tier decisions the current
// configuration would not make, so Compatible refuses it.
func cascadeStamp(cfg Config, mc core.Config) string {
	s := ""
	if cfg.Prefilter != nil {
		s = "pf=" + cfg.Prefilter.Fingerprint()
	}
	if mc.CheapModel != "" {
		if s != "" {
			s += "+"
		}
		s += fmt.Sprintf("cheap=%s@%g", mc.CheapModel, mc.EscalateMargin)
	}
	return s
}

// shardStamp fingerprints the run's shard assignment: empty on
// unsharded runs (keeping old journals compatible), "i/N" on shard
// runs. Combined with TableHash and StreamWindow — both already in the
// meta — it pins the partition completely: which windows of which
// stream this journal owns. A resume under a different spec would
// execute (and journal) a different window subset, so Compatible
// refuses it.
func shardStamp(cfg Config) string {
	if !cfg.Shard.Enabled() {
		return ""
	}
	return cfg.Shard.String()
}

// runMeta builds the current run's fingerprint for journal stamping and
// resume verification.
func runMeta(cfg Config, f *core.Framework, tableA, tableB []entity.Record) runstore.RunMeta {
	mc := f.Config()
	return runstore.RunMeta{
		RunID:        cfg.Journal.RunID(),
		Model:        mc.Model,
		Cascade:      cascadeStamp(cfg, mc),
		Shard:        shardStamp(cfg),
		Seed:         mc.Seed,
		BatchSize:    mc.BatchSize,
		NumDemos:     mc.NumDemos,
		Batching:     mc.Batching.String(),
		Selection:    mc.Selection.String(),
		StreamWindow: cfg.StreamWindow,
		SharedPool:   cfg.Pool != nil,
		RowsA:        len(tableA),
		RowsB:        len(tableB),
		TableHash:    tableHash(tableA, tableB),
		CreatedUnix:  time.Now().Unix(),
	}
}

// prepareJournal stamps a fresh journal with the run fingerprint, or
// verifies an existing journal belongs to this exact run before any
// replay or spend happens.
func prepareJournal(cfg Config, f *core.Framework, tableA, tableB []entity.Record) error {
	j := cfg.Journal
	if j == nil {
		return nil
	}
	want := runMeta(cfg, f, tableA, tableB)
	if got, ok := j.State().Meta(); ok {
		if !got.Compatible(want) {
			return fmt.Errorf("%w: journaled fingerprint %+v, current run %+v",
				runstore.ErrRunMismatch, got, want)
		}
		return nil
	}
	if !j.State().Empty() {
		return fmt.Errorf("%w: journal has records but no fingerprint", runstore.ErrRunMismatch)
	}
	return j.WriteMeta(want)
}

// pairKeys extracts the stable pair identities of a window, used both to
// journal answered pairs and to verify a journal against the live
// candidate stream.
func pairKeys(win []entity.Pair) []string {
	keys := make([]string, len(win))
	for i, p := range win {
		keys[i] = p.Key()
	}
	return keys
}

// winPos locates one window in both coordinate systems a journaled run
// uses: idx/offset are journal-local (counting only the windows this
// run owns — identical to the global position on unsharded runs), while
// global and key record the window's place in the full candidate
// stream and the partition key that assigned it here.
type winPos struct {
	idx    int    // journal-local window ordinal
	offset int    // journal-local ambiguous-pair offset
	global int    // ordinal in the full candidate stream
	key    string // partition key: the window's first candidate pair key
}

// verifyJournalWindow checks that journaled records for the window line
// up with the live stream's window: same position (local and global),
// same partition key, same size, same pairs.
func verifyJournalWindow(st *runstore.RunState, pos winPos, keys []string) error {
	if ws, ok := st.WindowStart(pos.idx); ok {
		if ws.Offset != pos.offset || ws.Size != len(keys) {
			return fmt.Errorf("%w: window %d journaled at offset %d size %d, stream has offset %d size %d",
				runstore.ErrRunMismatch, pos.idx, ws.Offset, ws.Size, pos.offset, len(keys))
		}
		if ws.Key != "" && ws.Key != pos.key {
			return fmt.Errorf("%w: window %d journaled with partition key %q, stream has %q",
				runstore.ErrRunMismatch, pos.idx, ws.Key, pos.key)
		}
		if ws.Key != "" && ws.Global != pos.global {
			return fmt.Errorf("%w: window %d journaled at stream position %d, stream has %d",
				runstore.ErrRunMismatch, pos.idx, ws.Global, pos.global)
		}
	}
	return st.VerifyWindowKeys(pos.idx, keys)
}

// replayWindow reconstructs a fully journaled window's result without
// invoking the matcher: predictions in window order, the billed API
// delta, and the original annotation spend. ok is false when the journal
// does not cover every pair of the window.
func replayWindow(st *runstore.RunState, wIdx, size int) (*core.Result, bool) {
	preds, ok := st.WindowPreds(wIdx, size)
	if !ok {
		return nil, false
	}
	usage, trimmed := st.WindowUsage(wIdx)
	ws, _ := st.WindowStart(wIdx)
	res := &core.Result{
		Pred:         preds,
		DemosLabeled: len(ws.Labeled),
		LabeledPool:  ws.Labeled,
		PromptTokens: usage.InputTokens(),
		TrimmedDemos: trimmed,
	}
	res.Ledger.MergeAPI(&usage)
	res.Ledger.AddLabels(len(ws.Labeled))
	return res, true
}

// mergePartialUsage folds the journaled spend of a partially answered
// window into the aggregate exactly once, before the window is re-run.
// The re-run reproduces the already-billed batches as free cache hits
// (zero tokens, no call), so with a persistent response cache the
// resumed ledger converges to the uninterrupted run's.
func mergePartialUsage(st *runstore.RunState, wIdx int, agg *core.Result) {
	usage, _ := st.WindowUsage(wIdx)
	if usage.Calls() == 0 && usage.InputTokens() == 0 && usage.OutputTokens() == 0 {
		return
	}
	agg.Ledger.MergeAPI(&usage)
	agg.PromptTokens += usage.InputTokens()
}

// journalBatch records one completed batch of window wIdx durably. keys
// are the window's pair identities (pairKeys of the window), indexed by
// the batch's window-local question numbers.
func journalBatch(j *runstore.Journal, wIdx int, keys []string, br core.BatchResult) error {
	bkeys := make([]string, len(br.Questions))
	for i, qi := range br.Questions {
		bkeys[i] = keys[qi]
	}
	return j.BatchDone(runstore.BatchDone{
		Window:       wIdx,
		Batch:        br.Index,
		Questions:    br.Questions,
		Keys:         bkeys,
		Pred:         br.Pred,
		Calls:        br.Ledger.Calls(),
		InputTokens:  br.InputTokens,
		OutputTokens: br.OutputTokens,
		APIDollars:   br.Ledger.API(),
		TrimmedDemos: br.TrimmedDemos,
		Tier:         br.Tier,
		Tiers:        br.Ledger.TierBreakdown(),
		Degraded:     br.Degraded,
	})
}
