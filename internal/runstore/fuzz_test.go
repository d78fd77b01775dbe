package runstore

// Fuzz targets for the CRC-JSONL segment reader, the single component
// every durability guarantee rests on. Two complementary properties:
//
//   - FuzzReadSegments: arbitrary bytes on disk must never panic the
//     reader, and every record it does accept must be valid JSON (the
//     CRC envelope guarantees integrity, not well-formedness — but a
//     record was marshaled as JSON before checksumming, so anything
//     that round-trips the CRC must still parse).
//
//   - FuzzSegmentTruncation: cutting a valid log at any byte offset —
//     the on-disk state after any crash — must yield a clean prefix of
//     the written records, with no error: the torn tail is dropped,
//     never misread and never reported as corruption.
//
// Seed corpora live in testdata/fuzz and are run as plain test cases
// on every `go test`; CI adds a short -fuzz smoke on top.

import (
	"context"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSegments feeds raw bytes to the segment reader.
func FuzzReadSegments(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"c":0,"r":{}}`))
	f.Add([]byte("{\"c\":12345,\"r\":{\"k\":\"v\"}}\nnot json at all"))
	// A genuinely valid line (CRC of `{"n":1}` under Castagnoli).
	if line, err := encodeEnvelope([]byte(`{"n":1}`)); err == nil {
		f.Add(append(line, '\n'))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName("fz", 1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readSegments(context.Background(), dir, "fz", func(raw *json.RawMessage) error {
			if !json.Valid(*raw) {
				t.Fatalf("reader accepted a non-JSON record: %q", *raw)
			}
			return nil
		})
		// Errors are a legitimate outcome (corrupt interior lines); only
		// panics and invalid accepted records are failures.
		_ = err
	})
}

// envelope is the line format spelled as a struct. Non-test code frames
// and splits lines by hand (appendLine, splitLine); encoding/json's
// reading of this struct is the oracle they are tested against.
type envelope struct {
	CRC uint32          `json:"c"`
	Rec json.RawMessage `json:"r"`
}

// encodeEnvelope builds one on-disk line for payload through
// encoding/json: what segLog.append wrote before it framed lines by
// hand, and must still write byte for byte.
func encodeEnvelope(payload []byte) ([]byte, error) {
	return json.Marshal(envelope{CRC: crc32.Checksum(payload, castagnoli), Rec: payload})
}

// FuzzSegmentTruncation checks the crash-recovery contract: a valid
// log truncated at any offset reads back as an error-free prefix.
func FuzzSegmentTruncation(f *testing.F) {
	f.Add(uint8(4), uint16(0))
	f.Add(uint8(4), uint16(1))
	f.Add(uint8(8), uint16(70))
	f.Add(uint8(1), uint16(1000))
	f.Fuzz(func(t *testing.T, n uint8, cut uint16) {
		// Always write at least one record: the first append is what
		// creates the segment file the truncation below operates on.
		count := 1 + int(n%31)
		dir := t.TempDir()
		l := openSegLog(dir, "fz", 0, 1)
		type rec struct {
			V int `json:"v"`
		}
		for i := 0; i < count; i++ {
			if err := l.append(rec{V: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, segName("fz", 1))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int(cut) < len(data) {
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var got []int
		_, err = readSegments(context.Background(), dir, "fz", func(raw *json.RawMessage) error {
			var r rec
			if err := json.Unmarshal(*raw, &r); err != nil {
				return err
			}
			got = append(got, r.V)
			return nil
		})
		if err != nil {
			t.Fatalf("truncation at %d of %d bytes must read as a torn tail, got error: %v", cut, len(data), err)
		}
		if len(got) > count {
			t.Fatalf("read %d records, wrote only %d", len(got), count)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("record %d reads back as %d: truncation must preserve an exact prefix", i, v)
			}
		}
		// A cut past the end leaves the log whole: everything must survive.
		if int(cut) >= len(data) && len(got) != count {
			t.Fatalf("untruncated log lost records: got %d of %d", len(got), count)
		}
	})
}
