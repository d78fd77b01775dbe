package runstore

// Flush-policy tests. How often a log fsyncs is a durability decision
// per kind of log, not a property of the bytes it writes: the live
// journal and cache puts protect spend and keep their schedule to the
// fsync; a journal that copies records durable elsewhere, and the
// cache's compaction rewrite, flush once before anyone relies on them.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/llm"
)

// writeRun journals a complete run — meta, windows x perWindow records
// (each window's start and its batches), the terminal record — then
// closes j.
func writeRun(t *testing.T, j *Journal, windows, perWindow int) {
	t.Helper()
	meta := testMeta()
	meta.RunID = "r1"
	if err := j.WriteMeta(meta); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < windows; w++ {
		if err := j.WindowStart(WindowStart{Index: w, Offset: w * (perWindow - 1), Size: perWindow - 1, Global: w, Key: fmt.Sprintf("a%d|b%d", w, w)}); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < perWindow-1; b++ {
			err := j.BatchDone(BatchDone{
				Window: w, Batch: b, Questions: []int{b}, Keys: []string{fmt.Sprintf("a%d|b%d", w, b)},
				Pred: []entity.Label{entity.Match}, Calls: 1, InputTokens: 812, OutputTokens: 9, APIDollars: 0.001049,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Done(RunDone{Windows: windows, Owned: windows}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// segmentBytes concatenates a log's segment files in order.
func segmentBytes(t *testing.T, dir, prefix string) []byte {
	t.Helper()
	names, _, err := listSegments(dir, prefix)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	return all
}

// TestJournalFlushPolicies pins the live journal's fsync schedule — the
// fingerprint before any spend, every defaultSyncEvery records, the
// terminal record, Close — and holds the derived journal to its two,
// over byte-identical segments.
func TestJournalFlushPolicies(t *testing.T) {
	const windows, perWindow = 20, 5 // 1 + 100 + 1 records
	liveDir, derivedDir := t.TempDir(), t.TempDir()

	live, err := OpenJournal(context.Background(), liveDir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, live, windows, perWindow)
	// Meta: 1. Then the 100 records and the terminal one make 101 appends
	// since that sync: 6 batches of 16 and Done's own. Close: 1.
	if got := live.Syncs(); got != 9 {
		t.Errorf("live journal of 1+100+1 records: %d fsyncs, want 9 (meta, 6 batched, done, close)", got)
	}

	derived, err := OpenDerivedJournal(context.Background(), derivedDir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, derived, windows, perWindow)
	if got := derived.Syncs(); got < 1 || got > 2 {
		t.Errorf("derived journal of the same records: %d fsyncs, want Done's and Close's only", got)
	}
	if !bytes.Equal(segmentBytes(t, liveDir, "journal"), segmentBytes(t, derivedDir, "journal")) {
		t.Error("the flush policy changed the journal's bytes")
	}
}

// TestDerivedJournalRotationStillFlushes: holding the batched fsync does
// not hold rotation's, so a derived journal never leaves a closed
// segment unflushed behind it.
func TestDerivedJournalRotationStillFlushes(t *testing.T) {
	old := defaultSegmentBytes
	defaultSegmentBytes = 512
	defer func() { defaultSegmentBytes = old }()

	dir := t.TempDir()
	j, err := OpenDerivedJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, j, 6, 5)
	names, _, err := listSegments(dir, "journal")
	if err != nil || len(names) < 3 {
		t.Fatalf("want several segments, got %v, %v", names, err)
	}
	// One per rotation out of a segment, Done's and Close's.
	if got, want := j.Syncs(), len(names)-1+2; got != want {
		t.Errorf("%d segments: %d fsyncs, want %d", len(names), got, want)
	}
}

// TestDerivedJournalCutBeforeTerminalRecordHasNoDone: a derived journal
// is only as good as its terminal record. Cut anywhere before that
// record is whole — a crash at any point of the single unflushed write —
// it reopens without error as a run that never finished, never as a
// finished one.
func TestDerivedJournalCutBeforeTerminalRecordHasNoDone(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDerivedJournal(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, j, 3, 3)
	data := segmentBytes(t, dir, "journal")
	// data ends "}\n"; every cut up to and including the terminal
	// record's closing brace leaves that record torn or absent.
	for cut := 0; cut <= len(data)-2; cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, segName("journal", 1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(context.Background(), cutDir)
		if err != nil {
			t.Fatalf("cut at %d of %d bytes: %v", cut, len(data), err)
		}
		if _, done := j.State().Done(); done {
			t.Fatalf("cut at %d of %d bytes: reopened with a terminal record", cut, len(data))
		}
		j.Close()
	}
	whole := t.TempDir()
	if err := os.WriteFile(filepath.Join(whole, segName("journal", 1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(context.Background(), whole)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, done := j.State().Done(); !done {
		t.Error("the uncut journal lost its terminal record")
	}
}

func cachePrompt(i int) llm.Request {
	return llm.Request{Model: "m", Prompt: fmt.Sprintf("prompt-%03d-%s", i, "padpadpadpadpadpadpadpad")}
}

// TestCachePutFlushPolicy pins the cache's put schedule: one fsync per
// defaultSyncEvery puts, and Close's.
func TestCachePutFlushPolicy(t *testing.T) {
	c, err := OpenCache(context.Background(), &countClient{}, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Complete(context.Background(), cachePrompt(i)); err != nil {
			t.Fatal(err)
		}
		if got, want := c.log.syncs, (i+1)/defaultSyncEvery; got != want {
			t.Fatalf("after %d puts: %d fsyncs, want %d", i+1, got, want)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.log.syncs; got != 3 {
		t.Errorf("40 puts and Close: %d fsyncs, want 3", got)
	}
}

// TestCacheCompactionFlushesOnce: the rewrite of the survivors is a copy
// of entries still durable in the old segments, so it costs one fsync —
// issued before the old segments go — however many survive, next to the
// one that rotation spends closing the segment being left.
func TestCacheCompactionFlushesOnce(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(context.Background(), &countClient{}, dir, 8*1024)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("1000 puts never compacted an 8 KiB cache")
		}
		before, seg := c.log.syncs, c.log.seg
		want := 2 // rotation out of the old segment, the rewrite
		if c.log.unsynced+1 >= defaultSyncEvery {
			want++ // the put that tipped the budget filled a batch itself
		}
		if _, err := c.Complete(context.Background(), cachePrompt(i)); err != nil {
			t.Fatal(err)
		}
		if c.log.seg == seg || i == 0 {
			continue
		}
		// That put compacted.
		if c.Len() <= defaultSyncEvery {
			t.Fatalf("only %d survivors: the rewrite never reaches a batched fsync, pick a larger budget", c.Len())
		}
		if got := c.log.syncs - before; got != want {
			t.Errorf("compaction rewriting %d survivors: %d fsyncs, want %d", c.Len(), got, want)
		}
		if c.log.hold {
			t.Error("compaction left the cache log holding its fsyncs")
		}
		names, _, err := listSegments(dir, "cache")
		if err != nil || len(names) != 1 || names[0] != segName("cache", c.log.seg) {
			t.Fatalf("segments after compaction = %v, %v; want the rewritten one alone", names, err)
		}
		// The survivors are on disk, not in the writer's buffer.
		if lines := bytes.Count(segmentBytes(t, dir, "cache"), []byte{'\n'}); lines != c.Len() {
			t.Errorf("rewritten segment holds %d lines on disk, want the %d survivors", lines, c.Len())
		}
		return
	}
}
