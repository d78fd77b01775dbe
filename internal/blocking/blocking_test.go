package blocking

import (
	"testing"

	"batcher/internal/entity"
)

func rec(id string, kv ...string) entity.Record {
	var attrs, vals []string
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, kv[i])
		vals = append(vals, kv[i+1])
	}
	return entity.NewRecord(id, attrs, vals)
}

func TestTokenBlockerFindsSharedTokens(t *testing.T) {
	ta := []entity.Record{
		rec("a1", "title", "apple iphone 13"),
		rec("a2", "title", "samsung galaxy s9"),
	}
	tb := []entity.Record{
		rec("b1", "title", "iphone 13 pro"),
		rec("b2", "title", "dell xps laptop"),
	}
	b := &TokenBlocker{Attr: "title", MinShared: 1}
	pairs := collect(t, b, ta, tb)
	if len(pairs) != 1 {
		t.Fatalf("candidates = %d, want 1", len(pairs))
	}
	if pairs[0].A.ID != "a1" || pairs[0].B.ID != "b1" {
		t.Errorf("candidate = %s|%s", pairs[0].A.ID, pairs[0].B.ID)
	}
}

func TestTokenBlockerMinShared(t *testing.T) {
	ta := []entity.Record{rec("a1", "title", "apple iphone 13")}
	tb := []entity.Record{
		rec("b1", "title", "apple macbook air"), // shares 1 token
		rec("b2", "title", "apple iphone 14"),   // shares 2 tokens
	}
	b := &TokenBlocker{Attr: "title", MinShared: 2}
	pairs := collect(t, b, ta, tb)
	if len(pairs) != 1 || pairs[0].B.ID != "b2" {
		t.Errorf("MinShared=2 candidates = %v", pairs)
	}
}

func TestTokenBlockerMaxPostings(t *testing.T) {
	var ta, tb []entity.Record
	ta = append(ta, rec("a1", "title", "common"))
	for i := 0; i < 20; i++ {
		tb = append(tb, rec("b"+string(rune('a'+i)), "title", "common"))
	}
	b := &TokenBlocker{Attr: "title", MinShared: 1, MaxPostings: 10}
	if pairs := collect(t, b, ta, tb); len(pairs) != 0 {
		t.Errorf("over-frequent token survived: %d pairs", len(pairs))
	}
}

func TestTokenBlockerAllAttrs(t *testing.T) {
	ta := []entity.Record{rec("a1", "name", "x", "brand", "acme")}
	tb := []entity.Record{rec("b1", "name", "y", "brand", "acme")}
	b := &TokenBlocker{MinShared: 1}
	if pairs := collect(t, b, ta, tb); len(pairs) != 1 {
		t.Errorf("all-attr blocking missed brand overlap: %d", len(pairs))
	}
}

func TestTokenBlockerDeterministicOrder(t *testing.T) {
	ta := []entity.Record{rec("a1", "title", "widget pro max")}
	tb := []entity.Record{
		rec("b3", "title", "widget one"),
		rec("b1", "title", "widget two"),
		rec("b2", "title", "widget three"),
	}
	b := &TokenBlocker{Attr: "title", MinShared: 1}
	p1 := collect(t, b, ta, tb)
	p2 := collect(t, b, ta, tb)
	for i := range p1 {
		if p1[i].Key() != p2[i].Key() {
			t.Fatal("non-deterministic order")
		}
	}
}

func TestEvaluateStats(t *testing.T) {
	cands := []entity.Pair{
		{A: rec("a1"), B: rec("b1")},
		{A: rec("a2"), B: rec("b9")},
	}
	gold := map[string]bool{"a1|b1": true, "a3|b3": true}
	s := Evaluate(cands, gold, 10, 10)
	if s.Candidates != 2 {
		t.Errorf("Candidates = %d", s.Candidates)
	}
	if s.PairCompleteness != 0.5 {
		t.Errorf("PairCompleteness = %v", s.PairCompleteness)
	}
	if s.ReductionRatio != 1-2.0/100 {
		t.Errorf("ReductionRatio = %v", s.ReductionRatio)
	}
}

func TestEvaluateEmptyGold(t *testing.T) {
	s := Evaluate(nil, nil, 0, 0)
	if s.PairCompleteness != 0 || s.ReductionRatio != 0 {
		t.Errorf("degenerate stats = %+v", s)
	}
}

// Stats summarizes a blocker's output against gold matches for quality
// reporting: pair completeness (recall of true matches) and reduction
// ratio versus the full cross product.
type Stats struct {
	Candidates       int
	CrossProduct     int
	PairCompleteness float64
	ReductionRatio   float64
}

// Evaluate computes blocking stats. gold maps Pair.Key() of true matches.
func Evaluate(cands []entity.Pair, gold map[string]bool, sizeA, sizeB int) Stats {
	found := 0
	for _, p := range cands {
		if gold[p.Key()] {
			found++
		}
	}
	s := Stats{
		Candidates:   len(cands),
		CrossProduct: sizeA * sizeB,
	}
	if len(gold) > 0 {
		s.PairCompleteness = float64(found) / float64(len(gold))
	}
	if s.CrossProduct > 0 {
		s.ReductionRatio = 1 - float64(len(cands))/float64(s.CrossProduct)
	}
	return s
}
