package blocking

import (
	"fmt"
	"math/rand"
	"testing"

	"batcher/internal/datagen"
	"batcher/internal/entity"
)

func TestMinHashBlockerFindsSimilarSets(t *testing.T) {
	ta := []entity.Record{rec("a1", "title", "apple iphone 13 pro max graphite 256gb")}
	tb := []entity.Record{
		rec("b1", "title", "apple iphone 13 pro max 256gb"),
		rec("b2", "title", "lawnmower garden tool heavy duty"),
	}
	// b1 shares 6 of the pair's 7 distinct tokens (Jaccard 6/7), which
	// the 8-band x 4-row S-curve makes collide with probability
	// 1 - (1 - (6/7)^4)^8 = 0.998.
	b := &MinHashBlocker{Attr: "title"}
	pairs := collect(t, b, ta, tb)
	found := map[string]bool{}
	for _, p := range pairs {
		found[p.B.ID] = true
	}
	if !found["b1"] {
		t.Error("high-Jaccard pair missed by LSH")
	}
	if found["b2"] {
		t.Error("disjoint pair produced by LSH")
	}
}

func TestMinHashBlockerSCurve(t *testing.T) {
	// Empirical recall at Jaccard ~0.8 must far exceed recall at ~0.1.
	rnd := rand.New(rand.NewSource(1))
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%02d", i)
	}
	makeTitle := func(base []string, overlap int) string {
		out := append([]string(nil), base[:overlap]...)
		for len(out) < len(base) {
			out = append(out, vocab[rnd.Intn(len(vocab))]+"x")
		}
		s := ""
		for i, tok := range out {
			if i > 0 {
				s += " "
			}
			s += tok
		}
		return s
	}
	b := &MinHashBlocker{Attr: "title"}
	recall := func(overlap int) float64 {
		hits := 0
		const trials = 60
		for i := 0; i < trials; i++ {
			base := make([]string, 10)
			for j := range base {
				base[j] = vocab[rnd.Intn(len(vocab))] + fmt.Sprint(i)
			}
			ta := []entity.Record{rec("a", "title", makeTitle(base, 10))}
			tb := []entity.Record{rec("b", "title", makeTitle(base, overlap))}
			if len(collect(t, b, ta, tb)) > 0 {
				hits++
			}
		}
		return float64(hits) / trials
	}
	high, low := recall(9), recall(1)
	if high < 0.8 {
		t.Errorf("recall at high Jaccard = %.2f, want >= 0.8", high)
	}
	if low > 0.4 {
		t.Errorf("selectivity at low Jaccard = %.2f collisions, want <= 0.4", low)
	}
}

func TestMinHashBlockerDeterministic(t *testing.T) {
	d, _ := datagen.GenerateByName("Beer", 1)
	ta, tb := d.TableA[:50], d.TableB[:50]
	b := &MinHashBlocker{Attr: "beer_name"}
	p1 := collect(t, b, ta, tb)
	p2 := collect(t, b, ta, tb)
	if len(p1) != len(p2) {
		t.Fatal("non-deterministic candidate count")
	}
	for i := range p1 {
		if p1[i].Key() != p2[i].Key() {
			t.Fatal("non-deterministic order")
		}
	}
}

func TestMinHashBlockerEmptyTables(t *testing.T) {
	b := &MinHashBlocker{}
	if pairs := collect(t, b, nil, nil); len(pairs) != 0 {
		t.Errorf("empty tables produced %d pairs", len(pairs))
	}
}

func TestBlockersOnBenchmarkRecall(t *testing.T) {
	// Both blockers should recover a healthy share of true matches
	// on an easy benchmark clone.
	d, _ := datagen.GenerateByName("FZ", 1)
	gold := map[string]bool{}
	for _, p := range d.Pairs {
		if p.Truth == entity.Match {
			gold[p.Key()] = true
		}
	}
	blockers := map[string]Blocker{
		"token":   &TokenBlocker{Attr: "name", MinShared: 1},
		"minhash": &MinHashBlocker{Attr: "name"},
	}
	for name, b := range blockers {
		cands := collect(t, b, d.TableA, d.TableB)
		stats := Evaluate(cands, gold, len(d.TableA), len(d.TableB))
		if stats.PairCompleteness < 0.5 {
			t.Errorf("%s: pair completeness %.2f, want >= 0.5", name, stats.PairCompleteness)
		}
		if stats.ReductionRatio < 0.5 {
			t.Errorf("%s: reduction ratio %.2f, want >= 0.5", name, stats.ReductionRatio)
		}
	}
}

func BenchmarkMinHashBlocker(b *testing.B) {
	d, _ := datagen.GenerateByName("Beer", 1)
	blocker := &MinHashBlocker{Attr: "beer_name"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		collect(b, blocker, d.TableA, d.TableB)
	}
}
