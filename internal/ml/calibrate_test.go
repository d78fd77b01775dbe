package ml

import (
	"math"
	"testing"
)

// calibrationSet builds a deterministic synthetic set: at each raw score
// level the fraction of positives equals truth(score) exactly (up to
// integer rounding), so empirical frequencies are known in closed form.
func calibrationSet(truth func(float64) float64) (scores []float64, ys []bool) {
	const perLevel = 200
	for level := 1; level <= 19; level++ {
		s := float64(level) / 20
		pos := int(math.Round(truth(s) * perLevel))
		for i := 0; i < perLevel; i++ {
			scores = append(scores, s)
			ys = append(ys, i < pos)
		}
	}
	return scores, ys
}

// The base scorer is systematically over-confident: true frequency
// follows sigmoid(2*logit(s) - 1), which is inside the Platt family.
func overconfident(s float64) float64 {
	return 1 / (1 + math.Exp(-(2*logit(s) - 1)))
}

func TestPlattReliability(t *testing.T) {
	scores, ys := calibrationSet(overconfident)
	cal := FitPlatt(scores, ys)
	assertReliable(t, cal, overconfident)
}

// assertReliable checks the calibration is monotone and within epsilon of
// the empirical (= true, by construction) frequency at every score level.
func assertReliable(t *testing.T, cal Platt, truth func(float64) float64) {
	t.Helper()
	const eps = 0.05
	prev := -1.0
	for level := 1; level <= 19; level++ {
		s := float64(level) / 20
		p := cal.Calibrate(s)
		if p < prev-1e-12 {
			t.Errorf("calibrated probability not monotone at score %.2f: %.4f < %.4f", s, p, prev)
		}
		prev = p
		if want := truth(s); math.Abs(p-want) > eps {
			t.Errorf("score %.2f: calibrated %.4f, empirical frequency %.4f (|diff| > %.2f)", s, p, want, eps)
		}
	}
}

func TestFitPlattEmpty(t *testing.T) {
	cal := FitPlatt(nil, nil)
	if p := cal.Calibrate(0.7); math.IsNaN(p) || p <= 0 || p >= 1 {
		t.Errorf("empty-fit Platt produced %v", p)
	}
}

// Regression: a zero-variance feature column must standardize to a
// finite value, not NaN/Inf — the clamp in FitStandardizer guards the
// division. A constant column otherwise poisons every downstream dot
// product.
func TestFitStandardizerZeroVariance(t *testing.T) {
	xs := [][]float64{
		{1, 5, 0.3},
		{2, 5, 0.7},
		{3, 5, 0.5},
	}
	s := FitStandardizer(xs)
	for _, x := range xs {
		for i, v := range s.Apply(x) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("standardized dim %d of %v is %v", i, x, v)
			}
		}
	}
	// The constant column maps to exactly zero (x - mean = 0, divided by
	// the clamped unit std).
	if v := s.Apply(xs[0])[1]; v != 0 {
		t.Errorf("zero-variance column standardized to %v, want 0", v)
	}
}
