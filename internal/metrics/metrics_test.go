package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"batcher/internal/entity"
)

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Add(entity.Match, entity.Match)       // TP
	c.Add(entity.Match, entity.NonMatch)    // FN
	c.Add(entity.NonMatch, entity.Match)    // FP
	c.Add(entity.NonMatch, entity.NonMatch) // TN
	if c.TP != 1 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Errorf("confusion = %+v", c)
	}
}

func TestUnknownPredictionIsNonMatch(t *testing.T) {
	var c Confusion
	c.Add(entity.Match, entity.Unknown)
	if c.FN != 1 {
		t.Errorf("unknown prediction on match should be FN: %+v", c)
	}
	c.Add(entity.NonMatch, entity.Unknown)
	if c.TN != 1 {
		t.Errorf("unknown prediction on non-match should be TN: %+v", c)
	}
}

func TestPrecisionRecallF1(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 4, TN: 86}
	if got := c.Precision(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-8.0/12) > 1e-12 {
		t.Errorf("Recall = %v", got)
	}
	wantF1 := 100 * 2 * 0.8 * (8.0 / 12) / (0.8 + 8.0/12)
	if got := c.F1(); math.Abs(got-wantF1) > 1e-9 {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
}

func TestDegenerateMetrics(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("empty confusion should score 0 everywhere")
	}
	all := Confusion{TP: 5}
	if all.F1() != 100 {
		t.Errorf("perfect F1 = %v", all.F1())
	}
}

func TestAddAllPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddAll length mismatch did not panic")
		}
	}()
	var c Confusion
	c.AddAll([]entity.Label{entity.Match}, nil)
}

func TestAddAll(t *testing.T) {
	var c Confusion
	gold := []entity.Label{entity.Match, entity.NonMatch, entity.Match}
	pred := []entity.Label{entity.Match, entity.Match, entity.NonMatch}
	c.AddAll(gold, pred)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 {
		t.Errorf("AddAll = %+v", c)
	}
}

func TestF1Bounds(t *testing.T) {
	f := func(tp, fp, fn, tn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), FN: int(fn), TN: int(tn)}
		f1 := c.F1()
		return f1 >= 0 && f1 <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6})
	if math.Abs(s.Mean-4) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
	wantStd := math.Sqrt((4.0 + 0 + 4.0) / 3.0)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.Mean != 0 || s.Std != 0 {
		t.Errorf("Summarize(nil) = %+v", s)
	}
	if s := Summarize([]float64{7}); s.Mean != 7 || s.Std != 0 {
		t.Errorf("Summarize(single) = %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Mean: 78.92, Std: 0.32}
	if got := s.String(); got != "78.92±0.32" {
		t.Errorf("String = %q", got)
	}
}

func TestConfusionString(t *testing.T) {
	c := Confusion{TP: 1, FP: 1, FN: 0, TN: 2}
	got := c.String()
	if got == "" {
		t.Error("empty String()")
	}
}
