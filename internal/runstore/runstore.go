// Package runstore makes ER runs durable: it persists, across process
// restarts, the two things a crashed batch-prompting campaign cannot
// afford to lose — the predictions it already paid for and the LLM
// responses that produced them.
//
// Two on-disk structures share one storage substrate: append-only JSONL
// segment files, one record per line in the single shape
// {"c":<crc>,"r":<payload>} — the record's compact JSON behind the
// CRC-32C of exactly those bytes — flushed on a schedule set by what a
// crash would lose (docs/ARCHITECTURE.md, "Line format" and "Flush
// policy"):
//
//   - Journal is a per-run log of every answered batch: the pair keys,
//     predictions, token usage, and cost delta, written as batches
//     complete. pipeline.Run replays it on resume, skipping every window
//     whose batches are fully journaled and merging their ledger deltas
//     exactly once, so an interrupted run continues from the first
//     unanswered window instead of re-billing from scratch.
//
//   - Cache is a persistent LLM response cache keyed by the full request
//     identity (llm.CacheKey: model, prompt, tier; every request is sent
//     at the paper's temperature). It serves re-runs and overlapping
//     experiments for free, and on resume it absorbs the partially
//     answered window: re-issued prompts hit the cache, bill zero
//     tokens, and are excluded from the ledger's call count.
//
// Durability model: records are written whole lines at a time, so a
// crash can only tear the final line of the segment being written;
// readers split each line strictly, verify its checksum, decode its
// payload once, and silently drop a bad line at the tail of any segment
// while rejecting one anywhere else as corruption. Logs that are the
// only record of spend — the live journal, cache puts — fsync every few
// records; logs that copy records durable elsewhere — a merged journal
// (OpenDerivedJournal), the cache's compaction rewrite — fsync once,
// before anything relies on them. A journal or cache directory is
// owned by one process at a time — concurrent writers are not
// coordinated. Sequential sharing (finish one run, start the next with
// the same cache directory) is the intended mode.
package runstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// castagnoli is the CRC-32C table; the same polynomial storage systems
// use for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The on-disk line format is {"c":<crc>,"r":<payload>}: the record's
// compact JSON and, before it, the CRC-32C of exactly those payload
// bytes as a canonical decimal. appendLine is the only writer of the
// shape and splitLine the only reader; both are strict, so the bytes a
// segment holds are a function of its records alone.
const (
	linePrefix = `{"c":`
	lineMid    = `,"r":`
)

// appendLine appends payload's line, without the newline, to dst.
// payload must be compact JSON as json.Marshal emits it; the result is
// then byte-identical to marshalling a {c, r} struct around it.
func appendLine(dst, payload []byte) []byte {
	dst = append(dst, linePrefix...)
	dst = strconv.AppendUint(dst, uint64(crc32.Checksum(payload, castagnoli)), 10)
	dst = append(dst, lineMid...)
	dst = append(dst, payload...)
	return append(dst, '}')
}

// splitLine is appendLine's inverse: it returns the recorded checksum
// and the payload bytes (aliasing line) of a line in exactly the shape
// appendLine writes. Anything else — other key order or spelling, white
// space outside or around the payload, a checksum with a sign, a leading
// zero or a value above 2^32-1, an empty payload, a missing final brace —
// is not a line this package wrote and reports ok false. An empty payload
// in particular must never pass: the CRC of zero bytes is zero, so
// `{"c":0,"r":}`-like debris would otherwise checksum. (Found by
// FuzzReadSegments.) splitLine does not verify the checksum or parse the
// payload; readSegments does both.
func splitLine(line []byte) (crc uint32, payload []byte, ok bool) {
	if !bytes.HasPrefix(line, []byte(linePrefix)) {
		return 0, nil, false
	}
	rest := line[len(linePrefix):]
	var c uint64
	digits := 0
	for digits < len(rest) && digits < 10 && rest[digits] >= '0' && rest[digits] <= '9' {
		c = c*10 + uint64(rest[digits]-'0')
		digits++
	}
	if digits == 0 || (rest[0] == '0' && digits > 1) || c > math.MaxUint32 {
		return 0, nil, false
	}
	rest = rest[digits:]
	if !bytes.HasPrefix(rest, []byte(lineMid)) || rest[len(rest)-1] != '}' {
		return 0, nil, false
	}
	payload = rest[len(lineMid) : len(rest)-1]
	if len(payload) == 0 || isJSONSpace(payload[0]) || isJSONSpace(payload[len(payload)-1]) {
		return 0, nil, false
	}
	return uint32(c), payload, true
}

func isJSONSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

// defaultSegmentBytes is the rotation threshold for segment files. It is
// a variable so tests can force rotation with tiny segments.
var defaultSegmentBytes = int64(4 << 20)

// defaultSyncEvery batches fsyncs: one durable flush per this many
// appended records (plus on rotation and Close). Batching amortizes the
// fsync latency without letting a crash lose more than a handful of
// records — and a lost record only ever costs a re-issued (cached or
// re-billed) call, never a wrong result.
const defaultSyncEvery = 16

// segLog is an append-only log of CRC-checked JSONL records spread over
// rotating segment files <dir>/<prefix>-NNNNNN.jsonl. It is not
// goroutine-safe; Journal and Cache serialize access with their own
// locks.
type segLog struct {
	dir    string
	prefix string
	maxSeg int64

	// hold suspends the flush policy's own fsyncs (the batched one in
	// append and Journal.WriteMeta's): set while the log is written as a
	// copy of records that are durable elsewhere, which needs one flush,
	// before its owner reports the copy as existing. Explicit sync,
	// rotation and close flush regardless. The two users are
	// OpenDerivedJournal and Cache.compact.
	hold bool

	f        *os.File
	w        *bufio.Writer
	payload  []byte // append's scratch: one record's payload
	line     []byte // append's scratch: one encoded line
	seg      int
	segBytes int64
	unsynced int
	syncs    int // fsyncs issued, for tests and benchmarks
}

func segName(prefix string, seg int) string {
	return fmt.Sprintf("%s-%06d.jsonl", prefix, seg)
}

// segIndex reports whether name is a segment file of prefix exactly as
// segName writes it, and if so its index.
func segIndex(prefix, name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, prefix+"-")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, ".jsonl")
	if !ok {
		return 0, false
	}
	seg, err := strconv.Atoi(digits)
	if err != nil || seg < 0 || segName(prefix, seg) != name {
		return 0, false
	}
	return seg, true
}

// IsJournalSegment reports whether name is the file name of a journal
// segment, as a Journal writes and reads them.
func IsJournalSegment(name string) bool {
	_, ok := segIndex("journal", name)
	return ok
}

// listSegments returns the existing segment file names for prefix in
// ascending segment order, plus the highest segment index (0 if none).
func listSegments(dir, prefix string) ([]string, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var names []string
	last := 0
	for _, e := range entries {
		if seg, ok := segIndex(prefix, e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
			last = max(last, seg)
		}
	}
	sort.Strings(names)
	return names, last, nil
}

// readSegments streams every valid record of type T to fn in write
// order: each line is split by splitLine, checksummed, and its payload
// decoded once, here, into a fresh T. A bad line — one that fails the
// split, the CRC, or whose payload is not syntactically JSON — is
// tolerated as the final line of any segment: appends only ever go to
// the newest segment, so each segment's tail is a potential crash point
// (the segment that was newest when that process died), and resumed
// processes write to fresh segments after it. A bad line with more lines
// behind it can only be real corruption and is an error, as is a
// checksummed payload that is JSON but not a T. Returns the highest
// existing segment index so writers can start a fresh segment after it.
//
// Payloads decode through decodeRecord: journal window and batch records
// by hand when their bytes are canonical, everything else, and every
// error, through json.Unmarshal.
//
// ctx is honored between segment files: replaying a large journal or
// cache directory stops promptly once the caller cancels.
func readSegments[T any](ctx context.Context, dir, prefix string, fn func(rec *T) error) (int, error) {
	names, last, err := listSegments(dir, prefix)
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec *T // stays nil for a bad line
			if crc, payload, ok := splitLine(line); ok && crc32.Checksum(payload, castagnoli) == crc {
				rec = new(T)
				if err := decodeRecord(payload, rec); err != nil {
					var syntax *json.SyntaxError
					if !errors.As(err, &syntax) {
						f.Close()
						return 0, fmt.Errorf("runstore: decode %s record: %w", prefix, err)
					}
					rec = nil
				}
			}
			if rec == nil {
				// Peek: a torn write can only be this segment's last line.
				if !sc.Scan() {
					break // torn tail: drop it, keep later segments
				}
				f.Close()
				return 0, fmt.Errorf("runstore: %s line %d: corrupt record", name, lineNo)
			}
			if err := fn(rec); err != nil {
				f.Close()
				return 0, err
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("runstore: reading %s: %w", name, err)
		}
	}
	return last, nil
}

// openSegLog prepares a writer that appends to a fresh segment after the
// existing ones (never to an old file, whose tail may be torn).
func openSegLog(dir, prefix string, lastSeg int) *segLog {
	return &segLog{
		dir:    dir,
		prefix: prefix,
		maxSeg: defaultSegmentBytes,
		seg:    lastSeg, // first append opens segment lastSeg+1
	}
}

// append encodes rec once (encodeRecord), frames it with its checksum
// (appendLine), and writes it as one line, rotating and fsync-batching
// as configured.
func (l *segLog) append(rec any) error {
	payload, err := encodeRecord(l.payload[:0], rec)
	if err != nil {
		return fmt.Errorf("runstore: encode record: %w", err)
	}
	l.payload = payload[:0]
	l.line = append(appendLine(l.line[:0], payload), '\n')
	if l.f == nil || l.segBytes >= l.maxSeg {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if _, err := l.w.Write(l.line); err != nil {
		return err
	}
	l.segBytes += int64(len(l.line))
	l.unsynced++
	if l.unsynced >= defaultSyncEvery {
		return l.policySync()
	}
	return nil
}

// policySync is an fsync the flush policy asks for on its own schedule,
// as opposed to one a caller's contract requires: a held log skips it.
func (l *segLog) policySync() error {
	if l.hold {
		return nil
	}
	return l.sync()
}

// rotate syncs and closes the current segment and opens the next one.
func (l *segLog) rotate() error {
	if l.f != nil {
		if err := l.sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
	}
	l.seg++
	path := filepath.Join(l.dir, segName(l.prefix, l.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segBytes = 0
	return nil
}

// sync flushes buffered lines and fsyncs the segment.
func (l *segLog) sync() error {
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs++
	l.unsynced = 0
	return nil
}

// close syncs and closes the current segment file.
func (l *segLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.w = nil
	return err
}
