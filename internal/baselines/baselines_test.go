package baselines

import (
	"context"
	"testing"

	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/metrics"
)

func workload(t *testing.T, name string) entity.Split {
	t.Helper()
	d, err := datagen.GenerateByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return entity.SplitPairs(d.Pairs)
}

func TestPLMNamesAndOrder(t *testing.T) {
	ps := PLMs()
	want := []string{"Ditto", "JointBERT", "RobEM"}
	if len(ps) != 3 {
		t.Fatalf("PLMs() = %d entries", len(ps))
	}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Errorf("PLMs()[%d] = %q, want %q", i, p.Name, want[i])
		}
	}
}

func TestPLMTrainNoData(t *testing.T) {
	if _, err := NewDitto().Train(nil, 0, 1); err == nil {
		t.Error("training with no data should fail")
	}
}

func TestPLMTrainsAndImproves(t *testing.T) {
	s := workload(t, "IA")
	test := s.Test
	ditto := NewDitto()
	small, err := ditto.Train(s.Train, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := ditto.Train(s.Train, len(s.Train), 1)
	if err != nil {
		t.Fatal(err)
	}
	f1Small := small.Evaluate(test).F1()
	f1Large := large.Evaluate(test).F1()
	if f1Large <= f1Small {
		t.Errorf("more data should help: n=25 F1=%.1f vs full F1=%.1f", f1Small, f1Large)
	}
	if f1Large < 55 {
		t.Errorf("full-data Ditto F1 = %.1f, implausibly low on IA", f1Large)
	}
}

func TestPLMSmallDataIsWeak(t *testing.T) {
	// The heart of Figure 7: with tens of examples, PLM heads over a
	// generic embedding must be clearly below their asymptote.
	s := workload(t, "Beer")
	ditto := NewDitto()
	small, err := ditto.Train(s.Train, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ditto.Train(s.Train, len(s.Train), 1)
	if err != nil {
		t.Fatal(err)
	}
	gap := full.Evaluate(s.Test).F1() - small.Evaluate(s.Test).F1()
	if gap < 3 {
		t.Errorf("learning-curve gap = %.1f F1 points; embedding head saturates too fast", gap)
	}
}

func TestRobEMImbalanceHandlingRaisesRecall(t *testing.T) {
	// RobEM's headline mechanism is aggressive positive-class
	// reweighting: on a skewed dataset (FZ: 110 matches in 946 pairs) at
	// small training sizes it must recover at least as many true matches
	// as Ditto, which reweights far less. Averaged over seeds.
	s := workload(t, "FZ")
	var robemRecall, dittoRecall float64
	for seed := int64(1); seed <= 5; seed++ {
		robem, err := NewRobEM().Train(s.Train, 100, seed)
		if err != nil {
			t.Fatal(err)
		}
		ditto, err := NewDitto().Train(s.Train, 100, seed)
		if err != nil {
			t.Fatal(err)
		}
		robemRecall += robem.Evaluate(s.Test).Recall()
		dittoRecall += ditto.Evaluate(s.Test).Recall()
	}
	if robemRecall < dittoRecall-0.25 {
		t.Errorf("RobEM recall (%.2f) should not trail Ditto (%.2f) on imbalanced small data",
			robemRecall/5, dittoRecall/5)
	}
}

// learningCurve trains p at each training-set size (clamped to the
// train split) and reports test F1: one line of Figure 7.
func learningCurve(p *PLM, train, test []entity.Pair, sizes []int, seed int64) ([]LearningCurvePoint, error) {
	out := make([]LearningCurvePoint, 0, len(sizes))
	for _, n := range sizes {
		n = min(n, len(train))
		fitted, err := p.Train(train, n, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, LearningCurvePoint{TrainSize: n, F1: fitted.Evaluate(test).F1()})
	}
	return out, nil
}

func TestLearningCurveShape(t *testing.T) {
	s := workload(t, "IA")
	pts, err := learningCurve(NewRobEM(), s.Train, s.Test, []int{20, 80, len(s.Train)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("curve = %v", pts)
	}
	if pts[0].TrainSize != 20 || pts[2].TrainSize != len(s.Train) {
		t.Errorf("sizes = %v", pts)
	}
	if pts[2].F1 < pts[0].F1-5 {
		t.Errorf("curve strongly inverted: %v", pts)
	}
}

func TestLearningCurveClampsSizes(t *testing.T) {
	s := workload(t, "Beer")
	pts, err := learningCurve(NewDitto(), s.Train, s.Test, []int{10_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].TrainSize != len(s.Train) {
		t.Errorf("size not clamped: %v", pts)
	}
}

func TestManualPromptRun(t *testing.T) {
	s := workload(t, "Beer")
	questions := s.Test[:30]
	oracle := llm.BuildOracle(append(append([]entity.Pair(nil), questions...), s.Train...))
	client := llm.NewSimulated(oracle, 1)
	res, err := ManualPrompt{}.Run(context.Background(), questions, s.Train, client)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pred) != len(questions) {
		t.Fatalf("predictions = %d", len(res.Pred))
	}
	if res.Ledger.Calls() != len(questions) {
		t.Errorf("standard prompting calls = %d, want one per question", res.Ledger.Calls())
	}
	var c metrics.Confusion
	c.AddAll(entity.Labels(questions), res.Pred)
	if c.F1() < 50 {
		t.Errorf("ManualPrompt F1 = %.1f, implausibly low", c.F1())
	}
	if demos := curateDemos(s.Train, manualDemos); len(demos) != 6 {
		t.Errorf("default demos = %d, want 6", len(demos))
	}
}

// cacheServed answers every question "Yes" as a response cache does:
// CacheHit set and no billed tokens.
type cacheServed struct{}

func (cacheServed) Complete(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{Completion: "Question 1: Yes", CacheHit: true}, nil
}

// A cache-served answer is no API call: ManualPrompt bills none.
func TestManualPromptCacheHitsAreNotCalls(t *testing.T) {
	s := workload(t, "Beer")
	questions := s.Test[:5]
	res, err := ManualPrompt{}.Run(context.Background(), questions, s.Train, cacheServed{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Calls() != 0 || res.Ledger.API() != 0 {
		t.Errorf("cache-served run billed %s", res.Ledger.String())
	}
	for i, p := range res.Pred {
		if p != entity.Match {
			t.Errorf("pred[%d] = %v, want the cached Yes", i, p)
		}
	}
}

func TestCurateDemosBalancedClasses(t *testing.T) {
	s := workload(t, "IA")
	demos := curateDemos(s.Train, 8)
	if len(demos) != 8 {
		t.Fatalf("demos = %d", len(demos))
	}
	pos := 0
	for _, d := range demos {
		if d.Label == entity.Match {
			pos++
		}
	}
	if pos != 4 {
		t.Errorf("positive demos = %d, want 4", pos)
	}
}

func TestCurateDemosSmallReference(t *testing.T) {
	s := workload(t, "Beer")
	demos := curateDemos(s.Train[:10], 100)
	if len(demos) == 0 || len(demos) > 10 {
		t.Errorf("demos = %d", len(demos))
	}
}

func TestKCenterSpread(t *testing.T) {
	s := workload(t, "IA")
	var pos []entity.Pair
	for _, p := range s.Train {
		if p.Truth == entity.Match {
			pos = append(pos, p)
		}
	}
	demos := curateDemos(s.Train, 6)
	// No duplicate pairs among curated demos.
	seen := map[string]bool{}
	for _, d := range demos {
		k := d.Pair.Key()
		if seen[k] {
			t.Errorf("duplicate demo %s", k)
		}
		seen[k] = true
	}
	_ = pos
}
