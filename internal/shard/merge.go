package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"batcher/internal/runstore"
	"batcher/internal/workpool"
)

// The coordinator's refusals are typed so callers (and tests) can tell
// a broken shard set from a broken invocation. Every refusal of a shard
// set happens before the output directory is touched, and a non-empty
// output is refused with at most an empty directory created: a refused
// merge leaves nothing behind. (A crash mid-write is not a refusal; see
// Merge.)
var (
	// ErrShardMeta reports that a shard journal's fingerprint is
	// unusable: missing, not a shard journal at all, or disagreeing with
	// the other shards on anything but the shard spec itself (different
	// tables, model, seed, window size, pool mode, cascade).
	ErrShardMeta = errors.New("shard: journal fingerprints do not form one run")
	// ErrShardSet reports that the journals do not form one complete
	// partition: a spec whose count differs from the number of journals,
	// duplicate shard indices, or missing ones.
	ErrShardSet = errors.New("shard: journals do not form one complete shard set")
	// ErrShardWindows reports broken window coverage: a window without
	// partition coordinates, owned by the wrong shard, covered twice, or
	// absent from every shard.
	ErrShardWindows = errors.New("shard: journals do not cover the candidate stream exactly once")
	// ErrShardIncomplete reports a shard journal that did not run to
	// completion: no terminal record, or journaled windows that are
	// missing or only partially answered. Resume the shard to completion
	// and merge again.
	ErrShardIncomplete = errors.New("shard: journal is incomplete")
)

// Summary describes a completed merge.
type Summary struct {
	// Shards is the number of shard journals merged.
	Shards int
	// Windows is the total number of candidate windows in the merged
	// run.
	Windows int
	// Pairs is the total number of journaled (matcher-facing) pairs
	// across all windows.
	Pairs int
	// Meta is the merged run's fingerprint as written to the output
	// journal: the shards' shared fingerprint with the shard spec
	// cleared and the run ID renamed to the output directory.
	Meta runstore.RunMeta
	// Syncs is the number of fsyncs issued writing the output journal: a
	// merge is one sequential write flushed before Merge returns.
	Syncs int
}

// shardJournal is one validated input journal.
type shardJournal struct {
	dir   string
	spec  Spec
	meta  runstore.RunMeta
	state *runstore.RunState
	done  runstore.RunDone
}

// globalWindow locates one stream window inside the shard that owns it.
type globalWindow struct {
	shard *shardJournal
	local int
	start runstore.WindowStart
}

// Discover lists the shard journal directories under dir: every
// immediate subdirectory holding at least one journal segment, in
// lexical order. A subdirectory named "merged" is skipped — it is the
// conventional output of a previous Merge, not an input.
func Discover(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "merged" {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		subEntries, err := os.ReadDir(sub)
		if err != nil {
			return nil, err
		}
		for _, se := range subEntries {
			name := se.Name()
			if !se.IsDir() && strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, ".jsonl") {
				dirs = append(dirs, sub)
				break
			}
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// loadShard opens one shard journal read-only and validates its
// standalone invariants: a parseable shard fingerprint and a terminal
// record whose owned-window count matches what was journaled.
func loadShard(ctx context.Context, dir string) (*shardJournal, error) {
	j, err := runstore.OpenJournal(ctx, dir)
	if err != nil {
		return nil, err
	}
	state := j.State()
	if err := j.Close(); err != nil {
		return nil, err
	}
	meta, ok := state.Meta()
	if !ok {
		return nil, fmt.Errorf("%w: %s has no run fingerprint", ErrShardMeta, dir)
	}
	if meta.Shard == "" {
		return nil, fmt.Errorf("%w: %s is not a shard journal (no shard spec in its fingerprint)", ErrShardMeta, dir)
	}
	spec, err := Parse(meta.Shard)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrShardMeta, dir, err)
	}
	done, ok := state.Done()
	if !ok {
		return nil, fmt.Errorf("%w: %s has no terminal record (crashed or still running; resume it to completion first)", ErrShardIncomplete, dir)
	}
	if done.Owned != state.Windows() {
		return nil, fmt.Errorf("%w: %s terminal record claims %d owned windows but %d are journaled",
			ErrShardIncomplete, dir, done.Owned, state.Windows())
	}
	return &shardJournal{dir: dir, spec: spec, meta: meta, state: state, done: done}, nil
}

// sameRun reports whether two shard fingerprints describe the same
// underlying run: equal in everything but the run ID, the shard spec,
// and the creation time.
func sameRun(a, b runstore.RunMeta) bool {
	a.RunID, b.RunID = "", ""
	a.Shard, b.Shard = "", ""
	return a.Compatible(b)
}

// collectWindows validates one shard's window records against the
// partition and appends them to the global coverage map. Returns the
// shard's total journaled pair count.
func collectWindows(s *shardJournal, n, total int, byGlobal map[int]globalWindow) (int, error) {
	pairs := 0
	offset := 0
	prevGlobal := -1
	for i := 0; i < s.state.Windows(); i++ {
		ws, ok := s.state.WindowStart(i)
		if !ok {
			return 0, fmt.Errorf("%w: %s window %d has batch records but no start", ErrShardIncomplete, s.dir, i)
		}
		if ws.Key == "" {
			return 0, fmt.Errorf("%w: %s window %d carries no partition coordinates (journal predates sharding?)", ErrShardWindows, s.dir, i)
		}
		if owner := Assign(ws.Key, n); owner != s.spec.Index {
			return 0, fmt.Errorf("%w: %s window %d (key %q) belongs to shard %d, not %d",
				ErrShardWindows, s.dir, i, ws.Key, owner, s.spec.Index)
		}
		if ws.Global < 0 || ws.Global >= total {
			return 0, fmt.Errorf("%w: %s window %d claims stream position %d outside [0, %d)",
				ErrShardWindows, s.dir, i, ws.Global, total)
		}
		if ws.Global <= prevGlobal {
			return 0, fmt.Errorf("%w: %s window %d at stream position %d does not follow its predecessor at %d",
				ErrShardWindows, s.dir, i, ws.Global, prevGlobal)
		}
		prevGlobal = ws.Global
		if ws.Offset != offset {
			return 0, fmt.Errorf("%w: %s window %d journaled at pair offset %d, expected %d",
				ErrShardWindows, s.dir, i, ws.Offset, offset)
		}
		offset += ws.Size
		if ws.Size > 0 && !s.state.WindowComplete(i, ws.Size) {
			return 0, fmt.Errorf("%w: %s window %d is only partially answered; resume the shard to completion first",
				ErrShardIncomplete, s.dir, i)
		}
		if prev, dup := byGlobal[ws.Global]; dup {
			return 0, fmt.Errorf("%w: stream window %d is covered by both %s and %s",
				ErrShardWindows, ws.Global, prev.shard.dir, s.dir)
		}
		byGlobal[ws.Global] = globalWindow{shard: s, local: i, start: ws}
		pairs += ws.Size
	}
	return pairs, nil
}

// Merge verifies that shardDirs are the N journals of one sharded run —
// same fingerprint, shard indices 0..N-1 exactly once, every shard run
// to completion, window coverage exact and disjoint — and rewrites them
// as a single journal in global stream coordinates under outDir.
// Replaying that journal through the pipeline (same tables, same
// configuration, no shard spec) reproduces the uninterrupted
// single-process run byte for byte — predictions, per-tier ledger
// buckets, auto-resolved counts — with zero LLM calls.
//
// The shard journals are loaded concurrently and validated in argument
// order. Refusals are typed: ErrShardMeta, ErrShardSet, ErrShardWindows,
// and ErrShardIncomplete distinguish the ways a shard set can be wrong,
// and all are raised before anything is written — for a set broken in
// several ways, the error a one-by-one walk of shardDirs meets first.
// outDir must be empty (or not yet exist); the merged journal's run ID
// is outDir's base name.
//
// The merged journal is a copy of records the shard journals hold
// durably, so it is written in one pass and flushed once: Merge returns
// only after every byte of it is on disk, terminal record last. A crash
// before that leaves outDir holding a journal without a terminal record
// — it opens as an unfinished run, never as a complete one — and since
// outDir is then no longer empty, merging again needs it emptied first.
// The shard journals are only ever read.
func Merge(ctx context.Context, shardDirs []string, outDir string) (*Summary, error) {
	if len(shardDirs) == 0 {
		return nil, fmt.Errorf("%w: no shard journals given", ErrShardSet)
	}
	n := len(shardDirs)
	// Reading and decoding the journals is the bulk of a merge, so they
	// load side by side; the walk below keeps refusals in argument order.
	loaded := make([]*shardJournal, n)
	loadErrs := make([]error, n)
	workpool.For(workpool.Workers(), n, func(i int) {
		loaded[i], loadErrs[i] = loadShard(ctx, shardDirs[i])
	})
	shards := make([]*shardJournal, 0, n)
	byIndex := make(map[int]*shardJournal, n)
	for i, dir := range shardDirs {
		if loadErrs[i] != nil {
			return nil, loadErrs[i]
		}
		s := loaded[i]
		if s.spec.Count != n {
			return nil, fmt.Errorf("%w: %s is shard %s but %d journals were given",
				ErrShardSet, dir, s.spec, n)
		}
		if prev, dup := byIndex[s.spec.Index]; dup {
			return nil, fmt.Errorf("%w: shard index %d appears in both %s and %s",
				ErrShardSet, s.spec.Index, prev.dir, dir)
		}
		byIndex[s.spec.Index] = s
		if len(shards) > 0 && !sameRun(shards[0].meta, s.meta) {
			return nil, fmt.Errorf("%w: %s and %s fingerprint different runs",
				ErrShardMeta, shards[0].dir, dir)
		}
		shards = append(shards, s)
	}
	for i := 0; i < n; i++ {
		if byIndex[i] == nil {
			return nil, fmt.Errorf("%w: shard %d/%d is missing", ErrShardSet, i, n)
		}
	}
	// Every shard saw the same candidate stream, so all must agree on
	// its total window count.
	total := shards[0].done.Windows
	owned := 0
	for _, s := range shards {
		if s.done.Windows != total {
			return nil, fmt.Errorf("%w: %s saw %d stream windows but %s saw %d",
				ErrShardWindows, shards[0].dir, total, s.dir, s.done.Windows)
		}
		owned += s.done.Owned
	}
	if owned != total {
		return nil, fmt.Errorf("%w: shards own %d windows of a %d-window stream", ErrShardWindows, owned, total)
	}
	byGlobal := make(map[int]globalWindow, total)
	pairs := 0
	for i := 0; i < n; i++ {
		p, err := collectWindows(byIndex[i], n, total, byGlobal)
		if err != nil {
			return nil, err
		}
		pairs += p
	}
	for g := 0; g < total; g++ {
		if _, ok := byGlobal[g]; !ok {
			return nil, fmt.Errorf("%w: stream window %d is covered by no shard", ErrShardWindows, g)
		}
	}
	return writeMerged(ctx, shards, byGlobal, total, pairs, outDir)
}

// writeMerged rewrites the validated shard windows as one journal in
// global coordinates: window indices become stream ordinals, pair
// offsets become cumulative over the whole stream, and the fingerprint
// drops its shard spec so the pipeline replays the journal as an
// ordinary (unsharded) resumed run.
func writeMerged(ctx context.Context, shards []*shardJournal, byGlobal map[int]globalWindow, total, pairs int, outDir string) (*Summary, error) {
	// A copy of durable records: flushed once, by Done and Close below.
	out, err := runstore.OpenDerivedJournal(ctx, outDir)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	if !out.State().Empty() {
		return nil, fmt.Errorf("shard: output journal %s is not empty", outDir)
	}
	meta := shards[0].meta
	meta.RunID = out.RunID()
	meta.Shard = ""
	for _, s := range shards[1:] {
		if s.meta.CreatedUnix < meta.CreatedUnix {
			meta.CreatedUnix = s.meta.CreatedUnix
		}
	}
	if err := out.WriteMeta(meta); err != nil {
		return nil, err
	}
	offset := 0
	for g := 0; g < total; g++ {
		gw := byGlobal[g]
		ws := gw.start
		ws.Index = g
		ws.Offset = offset
		ws.Global = g
		if err := out.WindowStart(ws); err != nil {
			return nil, err
		}
		for _, b := range gw.shard.state.WindowBatches(gw.local) {
			b.Window = g
			if err := out.BatchDone(b); err != nil {
				return nil, err
			}
		}
		offset += ws.Size
	}
	if err := out.Done(runstore.RunDone{Windows: total, Owned: total}); err != nil {
		return nil, err
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	return &Summary{Shards: len(shards), Windows: total, Pairs: pairs, Meta: meta, Syncs: out.Syncs()}, nil
}
