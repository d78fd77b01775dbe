package datagen

import (
	"testing"

	"batcher/internal/entity"
	"batcher/internal/feature"
)

func movieSpec() CustomSpec {
	return CustomSpec{
		Name: "Movies", Domain: "Film",
		Attrs: []AttrSpec{
			{Name: "title", Vocab: []string{"dark", "silent", "last", "first", "lost", "night", "city", "king", "river", "storm"}, Tokens: 3},
			{Name: "director", Vocab: []string{"kubrick", "nolan", "scott", "villeneuve", "bigelow", "mann"}, KeepOnHardNeg: true},
			{Name: "year", Numeric: true, Min: 1970, Max: 2020},
		},
		NumPairs: 300, NumMatches: 60,
	}
}

func TestGenerateCustomCounts(t *testing.T) {
	d, err := GenerateCustom(movieSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Pairs) != 300 {
		t.Errorf("pairs = %d", len(d.Pairs))
	}
	if d.Matches() != 60 {
		t.Errorf("matches = %d", d.Matches())
	}
	if d.NumAttrs() != 3 {
		t.Errorf("attrs = %d", d.NumAttrs())
	}
}

func TestGenerateCustomDeterministic(t *testing.T) {
	a, _ := GenerateCustom(movieSpec(), 7)
	b, _ := GenerateCustom(movieSpec(), 7)
	for i := range a.Pairs {
		if a.Pairs[i].Serialize() != b.Pairs[i].Serialize() {
			t.Fatal("custom generation not deterministic")
		}
	}
}

func TestGenerateCustomLearnable(t *testing.T) {
	d, _ := GenerateCustom(movieSpec(), 1)
	ex := feature.NewLR()
	var pos, neg float64
	var np, nn int
	for _, p := range d.Pairs {
		v := feature.MeanSimilarity(ex.Extract(nil, p))
		if p.Truth == entity.Match {
			pos += v
			np++
		} else {
			neg += v
			nn++
		}
	}
	if pos/float64(np) <= neg/float64(nn) {
		t.Errorf("matches (%.3f) not more similar than non-matches (%.3f)", pos/float64(np), neg/float64(nn))
	}
}

func TestGenerateCustomHardNegKeepsDirector(t *testing.T) {
	spec := movieSpec()
	spec.HardNegShare = 1.0 // all negatives hard
	d, _ := GenerateCustom(spec, 3)
	kept := 0
	total := 0
	for _, p := range d.Pairs {
		if p.Truth != entity.NonMatch {
			continue
		}
		total++
		da, _ := p.A.Get("director")
		db, _ := p.B.Get("director")
		if da == db {
			kept++
		}
	}
	// The light perturbation pass may touch some values; most must keep.
	if kept*2 < total {
		t.Errorf("director kept on %d/%d hard negatives, want majority", kept, total)
	}
}

func TestCustomSpecValidation(t *testing.T) {
	cases := []struct {
		mutate func(*CustomSpec)
		msg    string
	}{
		{func(s *CustomSpec) { s.Name = "" }, "missing name"},
		{func(s *CustomSpec) { s.Attrs = nil }, "no attributes"},
		{func(s *CustomSpec) { s.NumMatches = 999 }, "matches > pairs"},
		{func(s *CustomSpec) { s.Attrs[0].Vocab = nil }, "no vocab"},
		{func(s *CustomSpec) { s.Attrs[2].Min, s.Attrs[2].Max = 10, 5 }, "max < min"},
		{func(s *CustomSpec) { s.Attrs[1].Name = "" }, "unnamed attribute"},
	}
	for _, c := range cases {
		spec := movieSpec()
		c.mutate(&spec)
		if _, err := GenerateCustom(spec, 1); err == nil {
			t.Errorf("validation missed: %s", c.msg)
		}
	}
}

func TestCustomEndToEndWithFramework(t *testing.T) {
	// A custom benchmark must flow through the whole stack.
	d, err := GenerateCustom(movieSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	split := entity.SplitPairs(d.Pairs)
	if len(split.Test) == 0 {
		t.Fatal("empty test split")
	}
}
