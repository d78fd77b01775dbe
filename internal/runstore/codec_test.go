package runstore

// Tests for the hand-written line codec (appendLine, splitLine) against
// encoding/json's reading of the envelope struct in fuzz_test.go, which
// is what wrote and read every line before the codec existed.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"batcher/internal/cost"
	"batcher/internal/entity"
)

// frame spells out a line from a checksum written as text and a
// payload, so tests can write shapes appendLine never would.
func frame(crc string, payload string) []byte {
	return []byte(`{"c":` + crc + `,"r":` + payload + `}`)
}

func crcOf(payload string) string {
	return strconv.FormatUint(uint64(crc32.Checksum([]byte(payload), castagnoli)), 10)
}

// checkSplitDifferential holds splitLine against the envelope oracle on
// one line of arbitrary bytes:
//
//   - what splitLine accepts is exactly the framing appendLine writes
//     (rebuilding the line from the parts gives the line back);
//   - when it accepts a line whose payload is JSON, encoding/json reads
//     the same checksum and the same payload bytes from it;
//   - every line encoding/json would itself have written (the line is
//     its own re-marshalling) is accepted.
func checkSplitDifferential(t *testing.T, line []byte) {
	t.Helper()
	crc, payload, ok := splitLine(line)
	var env envelope
	jerr := json.Unmarshal(line, &env)
	if ok {
		if len(payload) == 0 {
			t.Fatalf("splitLine accepted an empty payload in %q", line)
		}
		rebuilt := frame(strconv.FormatUint(uint64(crc), 10), string(payload))
		if !bytes.Equal(rebuilt, line) {
			t.Fatalf("splitLine accepted %q, which is not the canonical framing %q of its parts", line, rebuilt)
		}
		if json.Valid(payload) {
			if jerr != nil {
				t.Fatalf("splitLine accepted %q with a JSON payload, encoding/json refuses the line: %v", line, jerr)
			}
			if env.CRC != crc || !bytes.Equal(env.Rec, payload) {
				t.Fatalf("line %q: splitLine reads (%d, %q), encoding/json reads (%d, %q)", line, crc, payload, env.CRC, env.Rec)
			}
		}
	}
	if jerr == nil && len(env.Rec) > 0 {
		canon, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(canon, line) && !ok {
			t.Fatalf("splitLine refused %q, a line encoding/json writes", line)
		}
	}
}

// codecRecords returns records that stress what json.Marshal does to a
// payload before it is framed: HTML escaping, the JS line separators,
// invalid UTF-8, empty and nil slices, omitempty fields, and floats
// across the exponent-format boundaries.
func codecRecords(rng *rand.Rand) []any {
	stringsOfNote := []string{
		"", "plain", `quote " backslash \ slash /`, "<script>&amp;</script>",
		"line sep arator", "bad utf8 \xff\xfe tail", "tab\tnewline\ncr\r", "\x00\x1f",
		"日本語 ☃ 🎉", strings.Repeat("long ", 200),
	}
	floats := []float64{0, 0.001049, 1e-7, 1e-6, 9.999e-7, 1e20, 1e21, 1.0 / 3.0, 0.12 + 0.000001*7, math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0}
	pick := func() string { return stringsOfNote[rng.Intn(len(stringsOfNote))] }
	var recs []any
	for _, s := range stringsOfNote {
		recs = append(recs,
			cacheRecord{Key: s, Completion: s + s},
			journalRecord{Meta: &RunMeta{RunID: s, Model: s, Cascade: s}},
			journalRecord{Window: &WindowStart{Key: s, Labeled: []int{}}},
			map[string]any{s: []any{s, nil, true}},
		)
	}
	for _, f := range floats {
		recs = append(recs, journalRecord{Batch: &BatchDone{APIDollars: f, Tiers: []cost.TierUsage{{Tier: "cheap", Dollars: f}}}})
	}
	for i := 0; i < 200; i++ {
		n := rng.Intn(5)
		b := BatchDone{
			Window: rng.Intn(1 << 20), Batch: rng.Intn(64),
			Questions:  make([]int, n),
			Keys:       make([]string, n),
			Pred:       make([]entity.Label, n),
			Calls:      rng.Intn(3),
			APIDollars: floats[rng.Intn(len(floats))] * rng.Float64(),
			Degraded:   rng.Intn(4) == 0,
		}
		for q := range b.Keys {
			b.Questions[q] = rng.Intn(512)
			b.Keys[q] = pick() + "|" + pick()
			b.Pred[q] = entity.Label(rng.Intn(3) - 1)
		}
		if rng.Intn(2) == 0 {
			b.Tier = pick()
		}
		recs = append(recs, journalRecord{Batch: &b})
	}
	recs = append(recs, journalRecord{}, journalRecord{Done: &RunDone{}}, struct{}{}, 0, "", []int(nil), nil)
	return recs
}

// TestLineCodecMatchesEncodingJSON is the codec's differential test: a
// line built by hand is byte-equal to the marshalled envelope, splits
// back into the parts encoding/json reads from it, a segment written
// through segLog.append holds exactly those lines, and its journal
// records read back as the values json.Unmarshal makes of them.
func TestLineCodecMatchesEncodingJSON(t *testing.T) {
	recs := codecRecords(rand.New(rand.NewSource(1)))
	dir := t.TempDir()
	l := openSegLog(dir, "codec", 0, 0)
	var want bytes.Buffer
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := encodeEnvelope(payload)
		if err != nil {
			t.Fatal(err)
		}
		line := appendLine(nil, payload)
		if !bytes.Equal(line, oracle) {
			t.Fatalf("hand-built line differs from the marshalled envelope:\n got %q\nwant %q", line, oracle)
		}
		crc, got, ok := splitLine(line)
		if !ok || crc != crc32.Checksum(payload, castagnoli) || !bytes.Equal(got, payload) {
			t.Fatalf("splitLine(%q) = (%d, %q, %v), want the payload %q back", line, crc, got, ok, payload)
		}
		checkSplitDifferential(t, line)
		if err := l.append(rec); err != nil {
			t.Fatal(err)
		}
		want.Write(oracle)
		want.WriteByte('\n')
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName("codec", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Fatal("segment bytes differ from the marshalled envelopes, one per line")
	}
	n := 0
	_, err = readSegments(context.Background(), dir, "codec", func(raw *json.RawMessage) error {
		payload, _ := json.Marshal(recs[n])
		if !bytes.Equal(*raw, payload) {
			t.Fatalf("record %d reads back as %q, want %q", n, *raw, payload)
		}
		n++
		return nil
	})
	if err != nil || n != len(recs) {
		t.Fatalf("read %d of %d records back, err = %v", n, len(recs), err)
	}

	// The journal records among them, written through segLog.append and
	// read back through readSegments as journal records, decode to what
	// json.Unmarshal makes of their payloads; and the hand decoder takes
	// exactly the payloads the hand encoder wrote.
	var journal []journalRecord
	for _, rec := range recs {
		if jr, ok := rec.(journalRecord); ok {
			journal = append(journal, jr)
		}
	}
	jl := openSegLog(dir, "journal", 0, 0)
	for _, rec := range journal {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	n, hand := 0, 0
	_, err = readSegments(context.Background(), dir, "journal", func(got *journalRecord) error {
		payload, _ := json.Marshal(journal[n])
		var want journalRecord
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("record %d %s reads back as %+v, json.Unmarshal gives %+v", n, payload, *got, want)
		}
		_, encoded := appendJournalRecord(nil, &journal[n])
		if _, decoded := parseJournalRecord(payload); decoded != encoded {
			t.Fatalf("record %d %s: hand encoder took it %v, hand decoder %v", n, payload, encoded, decoded)
		}
		if encoded {
			hand++
		}
		n++
		return nil
	})
	if err != nil || n != len(journal) {
		t.Fatalf("read %d of %d journal records back, err = %v", n, len(journal), err)
	}
	if hand == 0 {
		t.Fatal("no record took the hand codec")
	}
}

// nearCanonicalLines are lines one edit away from the canonical shape.
// Most are lines the envelope decoder accepted; none is a line segLog
// ever wrote, and each is written twice where it matters — with the
// checksum of the payload encoding/json would extract and with the
// checksum of the bytes the hand split would — so no case is a bad line
// merely because its checksum is off.
func nearCanonicalLines() map[string][]byte {
	const p = `{"v":1}`
	c := crcOf(p)
	over := strconv.FormatUint(uint64(crc32.Checksum([]byte(p), castagnoli))+1<<32, 10)
	return map[string][]byte{
		"leading zero":               frame("0"+c, p),
		"two leading zeros":          frame("00"+c, p),
		"plus sign":                  frame("+"+c, p),
		"negative":                   frame("-"+c, p),
		"fraction":                   frame(c+".0", p),
		"exponent":                   frame(c+"e0", p),
		"checksum above 2^32-1":      frame(over, p),
		"twenty digits":              frame("99999999999999999999", p),
		"checksum as string":         frame(`"`+c+`"`, p),
		"no checksum":                frame("", p),
		"space after open brace":     []byte(`{ "c":` + c + `,"r":` + p + `}`),
		"space after first colon":    []byte(`{"c": ` + c + `,"r":` + p + `}`),
		"space after comma":          []byte(`{"c":` + c + `, "r":` + p + `}`),
		"space before payload":       frame(c, " "+p),
		"space before payload, own":  frame(crcOf(" "+p), " "+p),
		"space after payload":        frame(c, p+" "),
		"space after payload, own":   frame(crcOf(p+" "), p+" "),
		"tab after payload, own":     frame(crcOf(p+"\t"), p+"\t"),
		"space after close brace":    append(frame(c, p), ' '),
		"space before open brace":    append([]byte{' '}, frame(c, p)...),
		"swapped keys":               []byte(`{"r":` + p + `,"c":` + c + `}`),
		"upper-case keys":            []byte(`{"C":` + c + `,"R":` + p + `}`),
		"extra key":                  frame(c, p+`,"x":1`),
		"extra key, own":             frame(crcOf(p+`,"x":1`), p+`,"x":1`),
		"extra key first":            []byte(`{"x":1,"c":` + c + `,"r":` + p + `}`),
		"duplicate checksum":         []byte(`{"c":1,"c":` + c + `,"r":` + p + `}`),
		"duplicate payload":          frame(c, `{},"r":`+p),
		"empty payload":              frame("0", ""),
		"empty payload, line ends":   []byte(`{"c":0,"r":`),
		"bare envelope":              []byte(`{}`),
		"missing final brace":        []byte(`{"c":` + c + `,"r":` + p),
		"missing final brace, own":   []byte(`{"c":` + crcOf(`{"v":1`) + `,"r":` + p),
		"doubled final brace":        frame(c, p+"}"),
		"doubled final brace, own":   frame(crcOf(p+"}"), p+"}"),
		"payload not json, own":      frame(crcOf(`{"v":`), `{"v":`),
		"payload two values, own":    frame(crcOf(`1 2`), `1 2`),
		"prefix only":                []byte(`{"c":`),
		"prefix and digits only":     []byte(`{"c":12`),
		"up to the payload key only": []byte(`{"c":12,"r":`),
		"array envelope":             []byte(`[` + c + `,` + p + `]`),
		"not json at all":            []byte(`not json at all`),
	}
}

// TestNearCanonicalLinesAreBadLines pins the reader's rule for every
// such line: dropped without error as a segment's final line (a torn
// tail), corruption anywhere else, and never a panic or an accepted
// record.
func TestNearCanonicalLinesAreBadLines(t *testing.T) {
	good := appendLine(nil, []byte(`{"v":0}`))
	for name, bad := range nearCanonicalLines() {
		t.Run(name, func(t *testing.T) {
			checkSplitDifferential(t, bad)
			read := func(lines ...[]byte) (int, error) {
				dir := t.TempDir()
				data := append(bytes.Join(lines, []byte{'\n'}), '\n')
				if err := os.WriteFile(filepath.Join(dir, segName("nc", 1)), data, 0o644); err != nil {
					t.Fatal(err)
				}
				n := 0
				_, err := readSegments(context.Background(), dir, "nc", func(raw *json.RawMessage) error {
					if string(*raw) != `{"v":0}` {
						t.Errorf("reader accepted %q as a record", *raw)
					}
					n++
					return nil
				})
				return n, err
			}
			if n, err := read(good, bad); err != nil || n != 1 {
				t.Errorf("as the last line: read %d records, err = %v; want the 1 before it and no error", n, err)
			}
			if _, err := read(good, bad, good); err == nil || !strings.Contains(err.Error(), "corrupt record") {
				t.Errorf("with a line behind it: err = %v, want corruption", err)
			}
		})
	}
}

// TestReadSegmentsDecodeErrors pins the other half of the rule: a line
// that checksums and parses but is not the caller's record type is a
// hard error wherever it sits — it was written, whole, by something
// that is not this code — exactly as when the journal and the cache
// decoded their records themselves.
func TestReadSegmentsDecodeErrors(t *testing.T) {
	dir := t.TempDir()
	line := appendLine(nil, []byte(`{"batch":{"window":"seven"}}`))
	if err := os.WriteFile(filepath.Join(dir, segName("journal", 1)), append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenJournal(context.Background(), dir)
	if err == nil || !strings.Contains(err.Error(), "runstore: decode journal record:") {
		t.Fatalf("mistyped last record: err = %v, want a decode error", err)
	}
	var typeErr *json.UnmarshalTypeError
	if !errors.As(err, &typeErr) {
		t.Errorf("decode error %v does not wrap the *json.UnmarshalTypeError", err)
	}
}

// FuzzSplitLine holds the hand split against encoding/json on raw
// bytes; see checkSplitDifferential for the property.
func FuzzSplitLine(f *testing.F) {
	for _, line := range nearCanonicalLines() {
		f.Add(line)
	}
	for _, payload := range []string{`{}`, `{"v":1}`, `"<>& "`, `[1,2,3]`, `0.001049`, `1e-7`, `null`, "\"\xff\""} {
		f.Add(appendLine(nil, []byte(payload)))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkSplitDifferential(t, line)
	})
}

// nearCanonicalPayloads are journal payloads at and around the shape the
// hand encoder writes: canonical ones the hand decoder takes, and
// variants — white space, key order, escapes, unknown or mis-cased keys,
// numbers the field cannot hold, trailing bytes — it must leave to
// json.Unmarshal.
var nearCanonicalPayloads = []string{
	`{"window":{"index":1,"offset":2,"size":3}}`,
	`{"window":{"index":1,"offset":2,"size":3} }`,
	`{"window":{"offset":2,"index":1,"size":3}}`,
	`{"window":{"index":1,"offset":2,"size":3,"key":"a&b"}}`,
	`{"window":{"index":1,"offset":2,"size":3,"key":"a\u0026b"}}`,
	`{"window":{"index":1,"offset":2,"size":3,"extra":1}}`,
	`{"window":{"Index":1,"offset":2,"size":3}}`,
	`{"window":{"index":1.0,"offset":2,"size":3}}`,
	`{"window":{"index":-0,"offset":2,"size":3}}`,
	`{"window":{"index":01,"offset":2,"size":3}}`,
	`{"window":{"index":9223372036854775808,"offset":2,"size":3}}`,
	`{"window":{"index":-9223372036854775808,"offset":2,"size":3}}`,
	`{"window":{"index":1,"offset":2,"size":3,"labeled":null,"global":0,"key":""}}`,
	`{"window":{"index":1,"offset":2,"size":3,"labeled":[1,]}}`,
	`{"window":null}`,
	`{"window":{"index":1,"offset":2,"size":3},"batch":{"window":1}}`,
	`{"window":{"index":1,"offset":2,"size":3}}{}`,
	`{"batch":{"window":0,"batch":1,"questions":[0],"keys":["a|b"],"pred":[1],"calls":1,"in_tokens":2,"out_tokens":3,"api_dollars":0.001049}}`,
	`{"batch":{"window":0,"batch":1,"questions":[0],"keys":["a|b"],"pred":[128],"calls":1,"in_tokens":2,"out_tokens":3,"api_dollars":0}}`,
	`{"batch":{"window":0,"batch":1,"questions":[0],"keys":["a|b"],"pred":[-129],"calls":1,"in_tokens":2,"out_tokens":3,"api_dollars":0}}`,
	`{"batch":{"window":0,"batch":1,"questions":[0],"keys":["a|b"],"pred":[1],"calls":1,"in_tokens":2,"out_tokens":3,"api_dollars":1e400}}`,
	`{"batch":{"window":0,"batch":1,"questions":[0],"keys":["a|b"],"pred":[1],"calls":1,"in_tokens":2,"out_tokens":3,"api_dollars":1e-400}}`,
	`{"batch":{"window":0,"batch":1,"questions":[0],"keys":["a|b"],"pred":[1],"calls":1,"in_tokens":2,"out_tokens":3,"api_dollars":1.}}`,
	`{"batch":{"window":0,"batch":1,"questions":[0],"keys":["a|b"],"pred":[1],"calls":1,"in_tokens":2,"out_tokens":3,"api_dollars":"1"}}`,
	`{"batch":{"window":0,"batch":1,"questions":null,"keys":null,"pred":null,"calls":0,"in_tokens":0,"out_tokens":0,"api_dollars":-0,"degraded":false}}`,
	`{"batch":{"window":0,"batch":1,"questions":[],"keys":[],"pred":[],"calls":0,"in_tokens":0,"out_tokens":0,"api_dollars":2.5E+21,"tiers":[]}}`,
	`{"batch":{"window":0,"batch":1,"questions":[0,1],"keys":["a]b","c,d"],"pred":[1,0],"calls":1,"in_tokens":2,"out_tokens":3,"api_dollars":5e-7,"tier":"cheap","tiers":[{"tier":"cheap","calls":1,"in":2,"out":3,"usd":5e-7}],"degraded":true}}`,
	`{"batch":{"window":0,"batch":1,"questions":[0],"keys":["a|b"],"pred":[1],"calls":1,"in_tokens":2,"out_tokens":3,"api_dollars":0,"tiers":[null]}}`,
	`{"batch":{"window":0,"batch":1,"questions":[0],"keys":["a|b"],"pred":[1],"calls":1,"in_tokens":2,"out_tokens":3,"api_dollars":0,"degraded":true,"tier":"cheap"}}`,
	"{\"batch\":{\"window\":0,\"batch\":1,\"questions\":[0],\"keys\":[\"\xff\"],\"pred\":[1],\"calls\":1,\"in_tokens\":2,\"out_tokens\":3,\"api_dollars\":0}}",
	`{"batch":{"window":"seven"}}`,
	`{"meta":{"run_id":"r"}}`,
	`{"done":{"windows":1,"owned":1}}`,
	`{}`, `null`, `[]`, `7`,
}

// FuzzJournalRecord holds the journal record codec to encoding/json on
// arbitrary payload bytes: decoding succeeds exactly when json.Unmarshal
// does, with a DeepEqual value, or fails with the same error; and a
// value json.Unmarshal produced re-encodes to json.Marshal's bytes.
func FuzzJournalRecord(f *testing.F) {
	for _, rec := range codecRecords(rand.New(rand.NewSource(1))) {
		if payload, err := json.Marshal(rec); err == nil {
			f.Add(payload)
		}
	}
	for _, line := range nearCanonicalLines() {
		f.Add(line)
	}
	for _, payload := range nearCanonicalPayloads {
		f.Add([]byte(payload))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var want, got journalRecord
		jerr := json.Unmarshal(payload, &want)
		err := decodeRecord(payload, &got)
		if (err == nil) != (jerr == nil) {
			t.Fatalf("%q: codec err = %v, json.Unmarshal err = %v", payload, err, jerr)
		}
		if jerr != nil {
			var syntax, jsyntax *json.SyntaxError
			var typ, jtyp *json.UnmarshalTypeError
			if errors.As(err, &syntax) != errors.As(jerr, &jsyntax) || errors.As(err, &typ) != errors.As(jerr, &jtyp) || err.Error() != jerr.Error() {
				t.Fatalf("%q: codec err = %v, json.Unmarshal err = %v", payload, err, jerr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: codec decodes %+v, json.Unmarshal %+v", payload, got, want)
		}
		enc, err := encodeRecord(nil, want)
		jenc, jerr := json.Marshal(want)
		if (err == nil) != (jerr == nil) || !bytes.Equal(enc, jenc) {
			t.Fatalf("%+v: codec encodes %q (err %v), json.Marshal %q (err %v)", want, enc, err, jenc, jerr)
		}
	})
}

// fillEveryField sets every exported field reachable from v to a value
// no field has yet: distinct numbers, plain strings, true, and slices of
// two filled elements. A field of a kind it does not know fails the test,
// so a new field cannot slip past it unfilled.
func fillEveryField(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next % 100))
	case reflect.Float64:
		v.SetFloat(float64(*next) / 1024)
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillEveryField(t, v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillEveryField(t, v.Field(i), next)
			}
		}
	default:
		t.Fatalf("fillEveryField: %s has kind %s", v.Type(), v.Kind())
	}
}

// TestJournalCodecCoversEveryField holds the hand codec to every field
// of the records it takes: a window start and a batch with every field,
// nested tier usages included, set (and with none set) must take the
// hand encoder, encode to json.Marshal's bytes, and decode by hand to
// what json.Unmarshal reads. A field added to WindowStart, BatchDone or
// cost.TierUsage that record.go does not write and read fails here.
func TestJournalCodecCoversEveryField(t *testing.T) {
	var w WindowStart
	var b BatchDone
	next := 0
	fillEveryField(t, reflect.ValueOf(&w).Elem(), &next)
	fillEveryField(t, reflect.ValueOf(&b).Elem(), &next)
	for _, rec := range []journalRecord{{Window: &w}, {Batch: &b}, {Window: &WindowStart{}}, {Batch: &BatchDone{}}} {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := appendJournalRecord(nil, &rec); !ok {
			t.Fatalf("hand encoder declined %s", want)
		}
		got, err := encodeRecord(nil, rec)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("encodeRecord = %s (err %v), json.Marshal = %s", got, err, want)
		}
		var wantRec journalRecord
		if err := json.Unmarshal(want, &wantRec); err != nil {
			t.Fatal(err)
		}
		gotRec, ok := parseJournalRecord(want)
		if !ok || !reflect.DeepEqual(gotRec, wantRec) {
			t.Fatalf("%s: hand decoder = %+v, %v; json.Unmarshal = %+v", want, gotRec, ok, wantRec)
		}
	}
}
