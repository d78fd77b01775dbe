package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"time"

	"batcher/internal/core"
	"batcher/internal/entity"
	"batcher/internal/runstore"
)

// tableHash fingerprints the input tables by their record IDs so a
// journal cannot be resumed against tables with other rows. Attribute
// contents are deliberately excluded: hashing every value of
// million-row tables on each run would dwarf the blocking stage. A
// resume therefore checks row counts, record IDs and each journaled
// pair's IDs (runstore.RunState.Replay), never record contents: an
// edit that keeps every ID replays the journaled answers unnoticed.
func tableHash(tableA, tableB []entity.Record) string {
	h := sha256.New()
	buf := make([]byte, 0, 16<<10)
	buf = appendIDs(h, buf, tableA)
	buf = append(buf, 1)
	buf = appendIDs(h, buf, tableB)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// appendIDs appends each record's ID and a zero byte to buf, handing
// buf to h whenever the next ID would not fit, and returns what is left
// unwritten. Batching the writes keeps the fingerprint free of
// per-record allocations.
func appendIDs(h hash.Hash, buf []byte, table []entity.Record) []byte {
	for _, r := range table {
		if len(buf)+len(r.ID)+1 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = append(append(buf, r.ID...), 0)
	}
	return buf
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
// journal answered pairs and to check a journal against the live
// candidate stream. Each key is byte-equal to its Pair.Key; all of them
// are slices of one string built for the window, so a window costs two
// allocations however many pairs it holds.
func pairKeys(win []entity.Pair) []string {
	n := 0
	for _, p := range win {
		n += len(p.A.ID) + 1 + len(p.B.ID)
	}
	var b strings.Builder
	b.Grow(n)
	for _, p := range win {
		b.WriteString(p.A.ID)
		b.WriteByte('|')
		b.WriteString(p.B.ID)
	}
	rest := b.String()
	keys := make([]string, len(win))
	for i, p := range win {
		n := len(p.A.ID) + 1 + len(p.B.ID)
		keys[i], rest = rest[:n], rest[n:]
	}
	return keys
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
		InputTokens:  br.Ledger.InputTokens(),
		OutputTokens: br.Ledger.OutputTokens(),
		APIDollars:   br.Ledger.API(),
		TrimmedDemos: br.TrimmedDemos,
		Tier:         br.Tier,
		Tiers:        br.Ledger.TierBreakdown(),
		Degraded:     br.Degraded,
	})
}
