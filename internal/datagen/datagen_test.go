package datagen

import (
	"testing"

	"batcher/internal/entity"
	"batcher/internal/feature"
)

// tableII is the ground truth from the paper's Table II.
var tableII = map[string]struct {
	domain  string
	attrs   int
	pairs   int
	matches int
}{
	"WA":   {"Electronics", 5, 10242, 962},
	"AB":   {"Product", 3, 9575, 1028},
	"AG":   {"Software", 3, 11460, 1167},
	"DS":   {"Citation", 4, 28707, 5347},
	"DA":   {"Citation", 4, 12363, 2220},
	"FZ":   {"Restaurant", 6, 946, 110},
	"IA":   {"Music", 8, 532, 132},
	"Beer": {"Beer", 4, 450, 68},
}

func TestCatalogMatchesTableII(t *testing.T) {
	specs := Catalog()
	if len(specs) != len(tableII) {
		t.Fatalf("catalog has %d datasets, want %d", len(specs), len(tableII))
	}
	for _, s := range specs {
		want, ok := tableII[s.Name]
		if !ok {
			t.Errorf("unexpected dataset %q", s.Name)
			continue
		}
		if s.Domain != want.domain {
			t.Errorf("%s domain = %q, want %q", s.Name, s.Domain, want.domain)
		}
		if len(s.Attrs) != want.attrs {
			t.Errorf("%s #attrs = %d, want %d", s.Name, len(s.Attrs), want.attrs)
		}
		if s.NumPairs != want.pairs {
			t.Errorf("%s #pairs = %d, want %d", s.Name, s.NumPairs, want.pairs)
		}
		if s.NumMatches != want.matches {
			t.Errorf("%s #matches = %d, want %d", s.Name, s.NumMatches, want.matches)
		}
	}
}

// smallDatasets avoids regenerating the big citation sets in every test.
var smallDatasets = []string{"FZ", "IA", "Beer"}

func TestGenerateExactCounts(t *testing.T) {
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		d := Generate(spec, 1)
		if len(d.Pairs) != spec.NumPairs {
			t.Errorf("%s: generated %d pairs, want %d", name, len(d.Pairs), spec.NumPairs)
		}
		if got := d.Matches(); got != spec.NumMatches {
			t.Errorf("%s: generated %d matches, want %d", name, got, spec.NumMatches)
		}
		if d.NumAttrs() != len(spec.Attrs) {
			t.Errorf("%s: %d attrs, want %d", name, d.NumAttrs(), len(spec.Attrs))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range smallDatasets {
		a, err := GenerateByName(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := GenerateByName(name, 7)
		if len(a.Pairs) != len(b.Pairs) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range a.Pairs {
			if a.Pairs[i].Serialize() != b.Pairs[i].Serialize() || a.Pairs[i].Truth != b.Pairs[i].Truth {
				t.Fatalf("%s: pair %d differs between identical seeds", name, i)
			}
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	a, _ := GenerateByName("Beer", 1)
	b, _ := GenerateByName("Beer", 2)
	same := 0
	for i := range a.Pairs {
		if a.Pairs[i].Serialize() == b.Pairs[i].Serialize() {
			same++
		}
	}
	if same == len(a.Pairs) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateNoDuplicateRecordIDs(t *testing.T) {
	d, _ := GenerateByName("FZ", 3)
	seen := map[string]bool{}
	for _, r := range append(append([]entity.Record{}, d.TableA...), d.TableB...) {
		if seen[r.ID] {
			t.Fatalf("duplicate record ID %q", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestGenerateMatchesMoreSimilarThanEasyNegatives(t *testing.T) {
	// Structural sanity: mean LR similarity of matches must exceed that of
	// non-matches; otherwise the task would be ill-posed. The two hardest
	// clones (AG, DS) intentionally invert the *raw mean* — their matches
	// are dirty and their hard negatives near-identical, which is exactly
	// what makes them hard — so they are held to a looser bound.
	ex := feature.NewLR()
	for _, name := range Names() {
		d, _ := GenerateByName(name, 1)
		var posSum, negSum float64
		var nPos, nNeg int
		for _, p := range d.Pairs {
			v := feature.MeanSimilarity(ex.Extract(nil, p))
			if p.Truth == entity.Match {
				posSum += v
				nPos++
			} else {
				negSum += v
				nNeg++
			}
		}
		posMean, negMean := posSum/float64(nPos), negSum/float64(nNeg)
		margin := 0.05
		if name == "AG" || name == "DS" {
			margin = -0.12
		}
		if posMean <= negMean+margin {
			t.Errorf("%s: match sim %.3f not above non-match sim %.3f (margin %.2f)",
				name, posMean, negMean, margin)
		}
	}
}

func TestGenerateHardnessOrdering(t *testing.T) {
	// Pairs whose structural evidence is near the boundary or contradicts
	// their label are the ones LLMs get wrong; harder datasets must have
	// more of them. AG is the paper's hardest benchmark, FZ its easiest.
	ex := feature.NewLR()
	hardShare := func(name string) float64 {
		d, _ := GenerateByName(name, 1)
		n := 0
		for _, p := range d.Pairs {
			if feature.Alignment(ex.Extract(nil, p), p.Truth == entity.Match) < 0.05 {
				n++
			}
		}
		return float64(n) / float64(len(d.Pairs))
	}
	ag, fz := hardShare("AG"), hardShare("FZ")
	if ag <= fz {
		t.Errorf("AG (hard) difficult share %.3f should exceed FZ (easy) %.3f", ag, fz)
	}
	if ag < 0.05 {
		t.Errorf("AG difficult share %.3f implausibly small", ag)
	}
}

func TestHardNegativesCloserThanEasy(t *testing.T) {
	// Hard negatives share structure with their base entity.
	spec, _ := Lookup("WA")
	d := Generate(spec, 5)
	ex := feature.NewLR()
	var sims []float64
	for _, p := range d.Pairs {
		if p.Truth == entity.NonMatch {
			sims = append(sims, feature.MeanSimilarity(ex.Extract(nil, p)))
		}
	}
	// With ~55% hard negatives, a meaningful share of negatives should
	// show mid/high similarity.
	high := 0
	for _, s := range sims {
		if s > 0.5 {
			high++
		}
	}
	frac := float64(high) / float64(len(sims))
	if frac < 0.15 {
		t.Errorf("only %.1f%% of WA negatives are similar; hard negatives missing", frac*100)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("XX"); err == nil {
		t.Error("Lookup(XX) should fail")
	}
	if _, err := GenerateByName("XX", 1); err == nil {
		t.Error("GenerateByName(XX) should fail")
	}
}

func TestNamesOrder(t *testing.T) {
	want := []string{"WA", "AB", "AG", "DS", "DA", "FZ", "IA", "Beer"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q (paper table order)", i, got[i], want[i])
		}
	}
}

func TestSplitIsUsableDownstream(t *testing.T) {
	d, _ := GenerateByName("IA", 1)
	s := entity.SplitPairs(d.Pairs)
	if len(s.Train) == 0 || len(s.Valid) == 0 || len(s.Test) == 0 {
		t.Fatalf("split empty: %d/%d/%d", len(s.Train), len(s.Valid), len(s.Test))
	}
	// Test partition keeps some matches for F1 to be meaningful.
	m := 0
	for _, p := range s.Test {
		if p.Truth == entity.Match {
			m++
		}
	}
	if m == 0 {
		t.Error("test split has no matches")
	}
}

func TestPerturberTypoChangesString(t *testing.T) {
	d, _ := GenerateByName("Beer", 9)
	diff := 0
	for _, p := range d.Pairs {
		if p.Truth == entity.Match && p.A.Values[0] != p.B.Values[0] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("no match pair shows any perturbation on the name attribute")
	}
}

func BenchmarkGenerateWA(b *testing.B) {
	spec, _ := Lookup("WA")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(spec, int64(i))
	}
}
