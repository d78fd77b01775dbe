package runstore

// The journal's record codec. A journal is almost all window-start and
// batch records, and json.Marshal / json.Unmarshal of them was a third
// of a merge-and-replay's CPU. This file writes and reads those two
// kinds by hand; encoding/json stays the reference for both directions
// (codec_test.go, FuzzJournalRecord) and the fallback for everything
// the hand path does not take:
//
//   - appendJournalRecord writes exactly the bytes json.Marshal writes,
//     or declines: meta and done records, a union holding none or more
//     than one kind, a string that json.Marshal would escape, a
//     non-finite float (which json.Marshal refuses).
//   - parseJournalRecord reads a payload only when it is exactly in the
//     shape appendJournalRecord writes — keys in struct-tag order,
//     omitted optional fields allowed, no white space, no escapes, every
//     number fitting its field — and yields the value json.Unmarshal
//     yields from it. Anything else it declines without side effects,
//     and the caller hands the payload to json.Unmarshal, so every
//     error keeps its text and type.

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"

	"batcher/internal/cost"
	"batcher/internal/entity"
)

// encodeRecord returns rec's payload, byte for byte what json.Marshal
// writes: through appendJournalRecord into scratch when it takes rec,
// through json.Marshal otherwise. The payload may alias scratch.
func encodeRecord(scratch []byte, rec any) ([]byte, error) {
	if jr, ok := rec.(journalRecord); ok {
		if payload, ok := appendJournalRecord(scratch, &jr); ok {
			return payload, nil
		}
	}
	return json.Marshal(rec)
}

// decodeRecord decodes payload into the fresh record rec: a journal
// record through parseJournalRecord when it takes the payload, anything
// else through json.Unmarshal, whose error is returned unchanged.
func decodeRecord[T any](payload []byte, rec *T) error {
	if jr, ok := any(rec).(*journalRecord); ok {
		if r, ok := parseJournalRecord(payload); ok {
			*jr = r
			return nil
		}
	}
	return json.Unmarshal(payload, rec)
}

// plain marks the bytes json.Marshal copies into a string unescaped
// and the codec accepts inside one: printable ASCII and DEL, minus the
// quote, the backslash and the HTML characters <, > and &.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendJournalRecord appends rec's payload to dst. ok is false when rec
// is not one the codec writes byte for byte as json.Marshal does; the
// bytes appended so far are then meaningless.
func appendJournalRecord(dst []byte, rec *journalRecord) ([]byte, bool) {
	if rec.Meta != nil || rec.Done != nil || (rec.Window == nil) == (rec.Batch == nil) {
		return dst, false
	}
	var ok bool
	if rec.Window != nil {
		dst, ok = appendWindowStart(append(dst, `{"window":`...), rec.Window)
	} else {
		dst, ok = appendBatchDone(append(dst, `{"batch":`...), rec.Batch)
	}
	return append(dst, '}'), ok
}

// appendWindowStart, appendBatchDone and appendTierUsage list their
// struct's fields by hand; TestJournalCodecCoversEveryField fails when a
// field is added to one of the structs and not here.
func appendWindowStart(dst []byte, w *WindowStart) ([]byte, bool) {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(w.Index), 10)
	dst = strconv.AppendInt(append(dst, `,"offset":`...), int64(w.Offset), 10)
	dst = strconv.AppendInt(append(dst, `,"size":`...), int64(w.Size), 10)
	if len(w.Labeled) > 0 {
		dst = appendInts(append(dst, `,"labeled":`...), w.Labeled)
	}
	if w.Global != 0 {
		dst = strconv.AppendInt(append(dst, `,"global":`...), int64(w.Global), 10)
	}
	ok := true
	if w.Key != "" {
		dst, ok = appendString(append(dst, `,"key":`...), w.Key)
	}
	return append(dst, '}'), ok
}

func appendBatchDone(dst []byte, b *BatchDone) ([]byte, bool) {
	dst = strconv.AppendInt(append(dst, `{"window":`...), int64(b.Window), 10)
	dst = strconv.AppendInt(append(dst, `,"batch":`...), int64(b.Batch), 10)
	dst = appendInts(append(dst, `,"questions":`...), b.Questions)
	dst = append(dst, `,"keys":`...)
	ok := true
	if b.Keys == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, k := range b.Keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = appendString(dst, k); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	dst = appendInts(append(dst, `,"pred":`...), b.Pred)
	dst = strconv.AppendInt(append(dst, `,"calls":`...), int64(b.Calls), 10)
	dst = strconv.AppendInt(append(dst, `,"in_tokens":`...), int64(b.InputTokens), 10)
	dst = strconv.AppendInt(append(dst, `,"out_tokens":`...), int64(b.OutputTokens), 10)
	if dst, ok = appendFloat(append(dst, `,"api_dollars":`...), b.APIDollars); !ok {
		return dst, false
	}
	if b.TrimmedDemos != 0 {
		dst = strconv.AppendInt(append(dst, `,"trimmed_demos":`...), int64(b.TrimmedDemos), 10)
	}
	if b.Tier != "" {
		if dst, ok = appendString(append(dst, `,"tier":`...), b.Tier); !ok {
			return dst, false
		}
	}
	if len(b.Tiers) > 0 {
		dst = append(dst, `,"tiers":[`...)
		for i := range b.Tiers {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = appendTierUsage(dst, &b.Tiers[i]); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	if b.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, '}'), true
}

func appendTierUsage(dst []byte, u *cost.TierUsage) ([]byte, bool) {
	dst, ok := appendString(append(dst, `{"tier":`...), u.Tier)
	dst = strconv.AppendInt(append(dst, `,"calls":`...), int64(u.Calls), 10)
	dst = strconv.AppendInt(append(dst, `,"in":`...), int64(u.InputTokens), 10)
	dst = strconv.AppendInt(append(dst, `,"out":`...), int64(u.OutputTokens), 10)
	dst, fok := appendFloat(append(dst, `,"usd":`...), u.Dollars)
	return append(dst, '}'), ok && fok
}

// intElem is the element type of the records' integer lists.
type intElem interface{ int | entity.Label }

// appendInts writes a nil slice as null and any other as an array.
func appendInts[T intElem](dst []byte, s []T) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendString quotes s; ok is false if any byte of it is not plain.
func appendString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// appendFloat writes f by encoding/json's rule for float64: the shortest
// decimal in 'f' form, or in 'e' form below 1e-6 and from 1e21 up, with
// a negative exponent's leading zero dropped (e-07 becomes e-7). ok is
// false for NaN and ±Inf.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// parseJournalRecord decodes a window-start or batch payload written in
// exactly appendJournalRecord's shape. ok is false, and rec zero, for
// any other payload.
func parseJournalRecord(payload []byte) (rec journalRecord, ok bool) {
	c := cursor{b: payload, ok: true}
	switch {
	case c.opt(`{"window":`):
		rec.Window = c.windowStart()
	case c.opt(`{"batch":`):
		rec.Batch = c.batchDone()
	default:
		return rec, false
	}
	c.lit("}")
	if !c.ok || len(c.b) != 0 {
		return journalRecord{}, false
	}
	return rec, true
}

// cursor reads a payload front to back. Once a read fails, ok is false
// and every later read is a no-op returning a zero value, so a parser
// checks ok once, at the end.
type cursor struct {
	b  []byte
	ok bool
}

// lit consumes s, which must come next.
func (c *cursor) lit(s string) {
	if !c.opt(s) {
		c.fail()
	}
}

// opt consumes s if it comes next and reports whether it did.
func (c *cursor) opt(s string) bool {
	if !c.ok || len(c.b) < len(s) || string(c.b[:len(s)]) != s {
		return false
	}
	c.b = c.b[len(s):]
	return true
}

func (c *cursor) fail() { c.ok = false }

// integer reads -?(0|[1-9][0-9]*) that fits a signed integer of the
// given bit size; other numbers, such as 1.0 or 1e3, fail the read.
func (c *cursor) integer(bits int) int64 {
	if !c.ok {
		return 0
	}
	b := c.b
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	start := i
	var u uint64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		if i-start == 19 { // past every int64
			c.fail()
			return 0
		}
		u = u*10 + uint64(b[i]-'0')
		i++
	}
	limit := uint64(1) << (bits - 1)
	neg := start == 1
	if i == start || (b[start] == '0' && i > start+1) || (neg && u > limit) || (!neg && u >= limit) {
		c.fail()
		return 0
	}
	c.b = b[i:]
	if neg {
		return -int64(u)
	}
	return int64(u)
}

func (c *cursor) int() int { return int(c.integer(strconv.IntSize)) }

// float reads a JSON number and converts it as json.Unmarshal does;
// a number strconv.ParseFloat rejects (out of float64's range) fails
// the read, as it fails json.Unmarshal.
func (c *cursor) float() float64 {
	if !c.ok {
		return 0
	}
	b := c.b
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		c.fail()
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			c.fail()
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			c.fail()
			return 0
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		c.fail()
		return 0
	}
	c.b = b[i:]
	return f
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// quoted returns the length of the quoted plain string at the front of
// b, quotes included, or 0 if there is none.
func quoted(b []byte) int {
	if len(b) == 0 || b[0] != '"' {
		return 0
	}
	for i := 1; i < len(b); i++ {
		if b[i] == '"' {
			return i + 1
		}
		if !plain[b[i]] {
			return 0
		}
	}
	return 0
}

func (c *cursor) str() string {
	if !c.ok {
		return ""
	}
	n := quoted(c.b)
	if n == 0 {
		c.fail()
		return ""
	}
	s := string(c.b[1 : n-1])
	c.b = c.b[n:]
	return s
}

// ints reads null as a nil slice and an array as a slice of exactly its
// length, [] included.
func ints[T intElem](c *cursor, bits int) []T {
	if c.opt("null") {
		return nil
	}
	c.lit("[")
	if c.opt("]") {
		return []T{}
	}
	end := bytes.IndexByte(c.b, ']')
	if !c.ok || end < 0 {
		c.fail()
		return nil
	}
	out := make([]T, 0, bytes.Count(c.b[:end], []byte{','})+1)
	for {
		out = append(out, T(c.integer(bits)))
		if !c.opt(",") {
			c.lit("]")
			return out
		}
	}
}

// strs reads null or an array of plain strings. The strings share one
// allocation: the array's bytes, which they are substrings of.
func (c *cursor) strs() []string {
	if c.opt("null") {
		return nil
	}
	c.lit("[")
	if c.opt("]") {
		return []string{}
	}
	if !c.ok {
		return nil
	}
	n, end := 0, 0
	for {
		q := quoted(c.b[end:])
		if q == 0 {
			c.fail()
			return nil
		}
		end += q
		n++
		if end < len(c.b) && c.b[end] == ',' {
			end++
			continue
		}
		break
	}
	all := string(c.b[:end]) // "k0","k1",…,"kn"
	c.b = c.b[end:]
	c.lit("]")
	out := make([]string, n)
	for i, at := 0, 1; i < n; i++ { // at: the first byte of string i
		close := at + strings.IndexByte(all[at:], '"')
		out[i] = all[at:close]
		at = close + 3 // past `","`
	}
	return out
}

func (c *cursor) windowStart() *WindowStart {
	var w WindowStart
	c.lit(`{"index":`)
	w.Index = c.int()
	c.lit(`,"offset":`)
	w.Offset = c.int()
	c.lit(`,"size":`)
	w.Size = c.int()
	if c.opt(`,"labeled":`) {
		w.Labeled = ints[int](c, strconv.IntSize)
	}
	if c.opt(`,"global":`) {
		w.Global = c.int()
	}
	if c.opt(`,"key":`) {
		w.Key = c.str()
	}
	c.lit("}")
	return &w
}

func (c *cursor) batchDone() *BatchDone {
	var b BatchDone
	c.lit(`{"window":`)
	b.Window = c.int()
	c.lit(`,"batch":`)
	b.Batch = c.int()
	c.lit(`,"questions":`)
	b.Questions = ints[int](c, strconv.IntSize)
	c.lit(`,"keys":`)
	b.Keys = c.strs()
	c.lit(`,"pred":`)
	b.Pred = ints[entity.Label](c, 8)
	c.lit(`,"calls":`)
	b.Calls = c.int()
	c.lit(`,"in_tokens":`)
	b.InputTokens = c.int()
	c.lit(`,"out_tokens":`)
	b.OutputTokens = c.int()
	c.lit(`,"api_dollars":`)
	b.APIDollars = c.float()
	if c.opt(`,"trimmed_demos":`) {
		b.TrimmedDemos = c.int()
	}
	if c.opt(`,"tier":`) {
		b.Tier = c.str()
	}
	if c.opt(`,"tiers":[`) {
		b.Tiers = c.tierUsages()
	}
	b.Degraded = c.opt(`,"degraded":true`)
	c.lit("}")
	return &b
}

// tierUsages reads the tier objects of a non-empty array whose opening
// bracket has been read.
func (c *cursor) tierUsages() []cost.TierUsage {
	var out []cost.TierUsage
	for c.ok {
		var u cost.TierUsage
		c.lit(`{"tier":`)
		u.Tier = c.str()
		c.lit(`,"calls":`)
		u.Calls = c.int()
		c.lit(`,"in":`)
		u.InputTokens = c.int()
		c.lit(`,"out":`)
		u.OutputTokens = c.int()
		c.lit(`,"usd":`)
		u.Dollars = c.float()
		c.lit("}")
		out = append(out, u)
		if !c.opt(",") {
			break
		}
	}
	c.lit("]")
	return out
}
