// Package entity defines the data model for entity resolution: records
// (tuples with named attributes), record pairs ("questions" in the paper's
// terminology), labeled demonstrations, and datasets with the standard
// 3:1:1 train/validation/test split.
//
// The package also implements the serialization function of Eq. (1) in the
// paper, which turns a record or a pair into the textual form consumed by
// prompt construction and by semantics-based feature extraction:
//
//	S(e)        = attr1: val1 ... attrm: valm
//	S((a, b))   = S(a) [SEP] S(b)
package entity

import (
	"fmt"
	"strings"
)

// Sep is the separator token between the two entities of a serialized pair,
// mirroring the [SEP] token used by the paper's serialization function.
const Sep = "[SEP]"

// Record is a single tuple: an ordered list of attribute names with values.
// Attribute order is significant (it fixes the layout of structure-aware
// feature vectors), so Record stores a schema slice rather than only a map.
type Record struct {
	// ID uniquely identifies the record within its table.
	ID string
	// Attrs lists attribute names in schema order.
	Attrs []string
	// Values holds the value for each attribute; Values[i] corresponds to
	// Attrs[i]. Missing values are empty strings.
	Values []string
}

// NewRecord builds a record from parallel attribute and value slices.
// It panics if the lengths differ, which always indicates a programming
// error in dataset construction.
func NewRecord(id string, attrs, values []string) Record {
	if len(attrs) != len(values) {
		panic(fmt.Sprintf("entity: record %q has %d attrs but %d values", id, len(attrs), len(values)))
	}
	return Record{ID: id, Attrs: attrs, Values: values}
}

// Get returns the value of the named attribute and whether it exists.
func (r Record) Get(attr string) (string, bool) {
	for i, a := range r.Attrs {
		if a == attr {
			return r.Values[i], true
		}
	}
	return "", false
}

// Serialize renders the record using the paper's serialization function
// S(e) = attr1: val1, ..., attrm: valm.
func (r Record) Serialize() string {
	var b strings.Builder
	b.Grow(r.serializedLen())
	r.writeSerialized(&b)
	return b.String()
}

// serializedLen is the byte length of r.Serialize().
func (r Record) serializedLen() int {
	n := 0
	for i, a := range r.Attrs {
		if i > 0 {
			n += len(", ")
		}
		n += len(a) + len(": ") + len(r.Values[i])
	}
	return n
}

// writeSerialized writes r.Serialize() to b.
func (r Record) writeSerialized(b *strings.Builder) {
	for i, a := range r.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a)
		b.WriteString(": ")
		b.WriteString(r.Values[i])
	}
}

// Label is the ground-truth matching status of a pair.
type Label int8

const (
	// NonMatch marks a pair whose records refer to different real-world entities.
	NonMatch Label = 0
	// Match marks a pair whose records refer to the same real-world entity.
	Match Label = 1
	// Unknown marks a pair that has not been labeled.
	Unknown Label = -1
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case Match:
		return "match"
	case NonMatch:
		return "non-match"
	default:
		return "unknown"
	}
}

// Pair is a candidate entity pair (a, b). In BATCHER terms an unlabeled
// pair drawn from the question set is a "question" and a labeled pair
// attached to a prompt is a "demonstration".
type Pair struct {
	// A and B are the two records, conventionally from tables TA and TB.
	A, B Record
	// Truth is the gold label, Unknown if not labeled.
	Truth Label
}

// Serialize renders the pair per Eq. (1): S(a) [SEP] S(b).
// It builds the string in one allocation.
func (p Pair) Serialize() string {
	const sep = " " + Sep + " "
	var b strings.Builder
	b.Grow(p.A.serializedLen() + len(sep) + p.B.serializedLen())
	p.A.writeSerialized(&b)
	b.WriteString(sep)
	p.B.writeSerialized(&b)
	return b.String()
}

// Key returns a stable identity for the pair based on record IDs. It is
// used for deduplication and for ground-truth oracle lookups.
func (p Pair) Key() string {
	return p.A.ID + "|" + p.B.ID
}

// Attrs returns the union schema of the pair in the order of record A's
// schema followed by any attributes only present in B. For the benchmark
// datasets both sides share a schema, so this is normally just A's schema.
func (p Pair) Attrs() []string {
	attrs := append([]string(nil), p.A.Attrs...)
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		seen[a] = true
	}
	for _, a := range p.B.Attrs {
		if !seen[a] {
			attrs = append(attrs, a)
			seen[a] = true
		}
	}
	return attrs
}

// Dataset is a labeled ER benchmark: two tables plus a candidate pair set
// with gold labels, as produced by a blocker over TA x TB.
type Dataset struct {
	// Name is the short dataset code, e.g. "WA" for Walmart-Amazon.
	Name string
	// Domain describes the subject area, e.g. "Electronics".
	Domain string
	// TableA and TableB are the two source tables.
	TableA, TableB []Record
	// Pairs is the labeled candidate set.
	Pairs []Pair
}

// Matches counts pairs labeled Match.
func (d *Dataset) Matches() int {
	n := 0
	for _, p := range d.Pairs {
		if p.Truth == Match {
			n++
		}
	}
	return n
}

// NumAttrs returns the number of attributes in the dataset schema
// (taken from the first record of table A; zero if empty).
func (d *Dataset) NumAttrs() int {
	if len(d.TableA) == 0 {
		return 0
	}
	return len(d.TableA[0].Attrs)
}

// Split holds the standard partition of a dataset's labeled pairs.
type Split struct {
	Train, Valid, Test []Pair
}

// SplitPairs partitions pairs into train/valid/test with the 3:1:1 ratio
// used by the paper and prior ER work. The input order is preserved within
// each part; callers shuffle beforehand if randomization is wanted.
// Matching and non-matching pairs are split separately (stratified) so each
// part keeps the dataset's class imbalance.
func SplitPairs(pairs []Pair) Split {
	var pos, neg []Pair
	for _, p := range pairs {
		if p.Truth == Match {
			pos = append(pos, p)
		} else {
			neg = append(neg, p)
		}
	}
	var s Split
	take := func(part []Pair) (train, valid, test []Pair) {
		n := len(part)
		nTrain := n * 3 / 5
		nValid := n / 5
		return part[:nTrain], part[nTrain : nTrain+nValid], part[nTrain+nValid:]
	}
	ptr, pva, pte := take(pos)
	ntr, nva, nte := take(neg)
	s.Train = interleave(ptr, ntr)
	s.Valid = interleave(pva, nva)
	s.Test = interleave(pte, nte)
	return s
}

// interleave merges two pair slices by alternating proportionally so the
// result is not sorted by class. It is deterministic.
func interleave(a, b []Pair) []Pair {
	out := make([]Pair, 0, len(a)+len(b))
	ia, ib := 0, 0
	for ia < len(a) || ib < len(b) {
		// Emit from whichever slice is behind its proportional position.
		if ib >= len(b) || (ia < len(a) && ia*(len(b)+1) <= ib*(len(a)+1)) {
			out = append(out, a[ia])
			ia++
		} else {
			out = append(out, b[ib])
			ib++
		}
	}
	return out
}

// Labels extracts the gold labels of pairs as a slice, in order.
func Labels(pairs []Pair) []Label {
	out := make([]Label, len(pairs))
	for i, p := range pairs {
		out[i] = p.Truth
	}
	return out
}
