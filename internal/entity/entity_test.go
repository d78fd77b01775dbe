package entity

import (
	"strings"
	"testing"
	"testing/quick"
)

func rec(id string, kv ...string) Record {
	var attrs, vals []string
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, kv[i])
		vals = append(vals, kv[i+1])
	}
	return NewRecord(id, attrs, vals)
}

func TestRecordSerialize(t *testing.T) {
	r := rec("a1", "title", "iphone-13", "id", "0256")
	got := r.Serialize()
	want := "title: iphone-13, id: 0256"
	if got != want {
		t.Errorf("Serialize() = %q, want %q", got, want)
	}
}

func TestRecordSerializeEmptyValue(t *testing.T) {
	r := rec("a1", "title", "mac14-air", "id", "")
	got := r.Serialize()
	if got != "title: mac14-air, id: " {
		t.Errorf("Serialize() = %q", got)
	}
}

func TestRecordGet(t *testing.T) {
	r := rec("a1", "title", "x", "price", "9.99")
	if v, ok := r.Get("price"); !ok || v != "9.99" {
		t.Errorf("Get(price) = %q, %v", v, ok)
	}
	if _, ok := r.Get("absent"); ok {
		t.Error("Get(absent) reported ok")
	}
}

func TestNewRecordPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRecord did not panic on attr/value length mismatch")
		}
	}()
	NewRecord("x", []string{"a", "b"}, []string{"1"})
}

func TestPairSerializeContainsSep(t *testing.T) {
	p := Pair{A: rec("a", "t", "x"), B: rec("b", "t", "y")}
	s := p.Serialize()
	if !strings.Contains(s, Sep) {
		t.Errorf("pair serialization %q missing separator", s)
	}
	if !strings.HasPrefix(s, "t: x") || !strings.HasSuffix(s, "t: y") {
		t.Errorf("pair serialization %q has wrong layout", s)
	}
}

func TestPairKey(t *testing.T) {
	p := Pair{A: rec("a1"), B: rec("b2")}
	if p.Key() != "a1|b2" {
		t.Errorf("Key() = %q", p.Key())
	}
	q := Pair{A: rec("b2"), B: rec("a1")}
	if p.Key() == q.Key() {
		t.Error("Key() should be order-sensitive across tables")
	}
}

func TestPairAttrsUnion(t *testing.T) {
	p := Pair{
		A: rec("a", "title", "x", "price", "1"),
		B: rec("b", "title", "y", "brand", "z"),
	}
	got := p.Attrs()
	want := []string{"title", "price", "brand"}
	if len(got) != len(want) {
		t.Fatalf("Attrs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Attrs()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLabelString(t *testing.T) {
	cases := map[Label]string{Match: "match", NonMatch: "non-match", Unknown: "unknown"}
	for l, want := range cases {
		if l.String() != want {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), want)
		}
	}
}

func makePairs(nPos, nNeg int) []Pair {
	pairs := make([]Pair, 0, nPos+nNeg)
	for i := 0; i < nPos; i++ {
		pairs = append(pairs, Pair{A: rec("p" + itoa(i)), B: rec("q" + itoa(i)), Truth: Match})
	}
	for i := 0; i < nNeg; i++ {
		pairs = append(pairs, Pair{A: rec("n" + itoa(i)), B: rec("m" + itoa(i)), Truth: NonMatch})
	}
	return pairs
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestSplitPairsRatio(t *testing.T) {
	pairs := makePairs(100, 400)
	s := SplitPairs(pairs)
	if len(s.Train)+len(s.Valid)+len(s.Test) != len(pairs) {
		t.Fatalf("split loses pairs: %d+%d+%d != %d", len(s.Train), len(s.Valid), len(s.Test), len(pairs))
	}
	if len(s.Train) != 300 {
		t.Errorf("train size = %d, want 300", len(s.Train))
	}
	if len(s.Valid) != 100 {
		t.Errorf("valid size = %d, want 100", len(s.Valid))
	}
	if len(s.Test) != 100 {
		t.Errorf("test size = %d, want 100", len(s.Test))
	}
}

func TestSplitPairsStratified(t *testing.T) {
	pairs := makePairs(100, 400)
	s := SplitPairs(pairs)
	count := func(ps []Pair) int {
		n := 0
		for _, p := range ps {
			if p.Truth == Match {
				n++
			}
		}
		return n
	}
	if got := count(s.Train); got != 60 {
		t.Errorf("train matches = %d, want 60", got)
	}
	if got := count(s.Valid); got != 20 {
		t.Errorf("valid matches = %d, want 20", got)
	}
	if got := count(s.Test); got != 20 {
		t.Errorf("test matches = %d, want 20", got)
	}
}

func TestSplitPairsPreservesAll(t *testing.T) {
	// Property: for any class sizes, the three parts partition the input.
	f := func(pos, neg uint8) bool {
		pairs := makePairs(int(pos), int(neg))
		s := SplitPairs(pairs)
		seen := make(map[string]int)
		for _, p := range pairs {
			seen[p.Key()]++
		}
		for _, part := range [][]Pair{s.Train, s.Valid, s.Test} {
			for _, p := range part {
				seen[p.Key()]--
			}
		}
		for _, c := range seen {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterleaveMixesClasses(t *testing.T) {
	pairs := makePairs(50, 50)
	s := SplitPairs(pairs)
	// With equal classes the train part should alternate rather than be
	// a block of matches followed by a block of non-matches.
	firstHalfMatches := 0
	for _, p := range s.Train[:len(s.Train)/2] {
		if p.Truth == Match {
			firstHalfMatches++
		}
	}
	if firstHalfMatches == 0 || firstHalfMatches == len(s.Train)/2 {
		t.Errorf("train part not interleaved: %d matches in first half of %d", firstHalfMatches, len(s.Train)/2)
	}
}

func TestDatasetMatchesAndNumAttrs(t *testing.T) {
	d := &Dataset{
		Name:   "T",
		TableA: []Record{rec("a", "x", "1", "y", "2")},
		Pairs:  makePairs(7, 13),
	}
	if d.Matches() != 7 {
		t.Errorf("Matches() = %d, want 7", d.Matches())
	}
	if d.NumAttrs() != 2 {
		t.Errorf("NumAttrs() = %d, want 2", d.NumAttrs())
	}
	empty := &Dataset{}
	if empty.NumAttrs() != 0 {
		t.Error("NumAttrs on empty dataset should be 0")
	}
}

func TestLabelsExtraction(t *testing.T) {
	pairs := makePairs(2, 1)
	ls := Labels(pairs)
	if len(ls) != 3 || ls[0] != Match || ls[2] != NonMatch {
		t.Errorf("Labels() = %v", ls)
	}
}
