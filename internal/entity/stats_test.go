package entity

import (
	"strings"
	"testing"
)

func sampleDataset() *Dataset {
	a1 := rec("a1", "title", "alpha, beta", "price", "9.99")
	a2 := rec("a2", "title", "gamma \"quoted\"", "price", "")
	b1 := rec("b1", "title", "alpha beta", "price", "9.99")
	b2 := rec("b2", "title", "delta", "price", "1")
	return &Dataset{
		Name:   "T",
		Domain: "Test",
		TableA: []Record{a1, a2},
		TableB: []Record{b1, b2},
		Pairs: []Pair{
			{A: a1, B: b1, Truth: Match},
			{A: a2, B: b2, Truth: NonMatch},
		},
	}
}

func TestComputeStats(t *testing.T) {
	d := sampleDataset()
	s := d.ComputeStats()
	if s.NumPairs != 2 || s.NumMatches != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.MatchRate != 0.5 {
		t.Errorf("MatchRate = %v", s.MatchRate)
	}
	if s.EmptyValues <= 0 {
		t.Error("empty-value fraction should be positive (a2 has empty price)")
	}
	if s.MeanValueLen <= 0 {
		t.Error("mean value length missing")
	}
	if !strings.Contains(s.String(), "Test") {
		t.Errorf("String = %q", s.String())
	}
}

func TestComputeStatsEmptyDataset(t *testing.T) {
	d := &Dataset{Name: "E"}
	s := d.ComputeStats()
	if s.MatchRate != 0 || s.MeanValueLen != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}
