package ml

import "math"

// Platt is sigmoid calibration: sigmoid(A*logit(p) + B), the standard
// parametric recalibration of a logistic-family score. Calibration is
// what makes cascade thresholds meaningful: "p >= 0.95" only licenses
// auto-resolving a pair if 0.95 really means ~95% of such pairs are
// matches (see internal/cascade).
type Platt struct {
	A, B float64
}

// Calibrate maps a raw classifier score p in (0,1) to a calibrated
// probability.
func (c Platt) Calibrate(p float64) float64 {
	return sigmoid(c.A*logit(p) + c.B)
}

// FitPlatt fits Platt scaling on held-out (score, label) pairs by
// gradient descent on the negative log-likelihood, using Platt's target
// smoothing so a perfectly separable calibration set does not drive the
// slope to infinity. Deterministic: no randomness, fixed iteration
// count.
func FitPlatt(scores []float64, ys []bool) Platt {
	n := len(scores)
	if n == 0 || n != len(ys) {
		return Platt{A: 1}
	}
	var pos, neg int
	for _, y := range ys {
		if y {
			pos++
		} else {
			neg++
		}
	}
	// Platt's smoothed targets: t+ = (N+ + 1)/(N+ + 2), t- = 1/(N- + 2).
	tPos := (float64(pos) + 1) / (float64(pos) + 2)
	tNeg := 1 / (float64(neg) + 2)
	zs := make([]float64, n)
	for i, s := range scores {
		zs[i] = logit(s)
	}
	a, b := 1.0, 0.0
	lr := 0.01
	for iter := 0; iter < 2000; iter++ {
		var ga, gb float64
		for i, z := range zs {
			p := sigmoid(a*z + b)
			t := tNeg
			if ys[i] {
				t = tPos
			}
			g := p - t
			ga += g * z
			gb += g
		}
		a -= lr * ga / float64(n)
		b -= lr * gb / float64(n)
	}
	return Platt{A: a, B: b}
}

// logit is the inverse sigmoid, clamped away from 0 and 1 so calibration
// never sees infinities.
func logit(p float64) float64 {
	p = math.Min(math.Max(p, 1e-12), 1-1e-12)
	return math.Log(p / (1 - p))
}
