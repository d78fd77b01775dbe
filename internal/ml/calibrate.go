package ml

import (
	"math"
	"sort"
)

// Calibrator maps a raw classifier score in (0,1) to a calibrated
// probability. Calibration is what makes cascade thresholds meaningful:
// "p >= 0.95" only licenses auto-resolving a pair if 0.95 really means
// ~95% of such pairs are matches (see internal/cascade).
type Calibrator interface {
	// Calibrate returns the calibrated probability for raw score p.
	Calibrate(p float64) float64
}

// Platt is sigmoid calibration: sigmoid(A*logit(p) + B), the standard
// parametric recalibration of a logistic-family score.
type Platt struct {
	A, B float64
}

// Calibrate implements Calibrator.
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

// Isotonic is a monotone step-function calibrator fitted by
// pool-adjacent-violators, linearly interpolated between block centers
// so nearby scores get nearby probabilities.
type Isotonic struct {
	// Scores are the block-center raw scores, ascending.
	Scores []float64
	// Values are the calibrated probabilities per block, non-decreasing.
	Values []float64
}

// Calibrate implements Calibrator: piecewise-linear interpolation over
// the fitted blocks, clamped to the end blocks outside the fitted range.
func (c Isotonic) Calibrate(p float64) float64 {
	n := len(c.Scores)
	if n == 0 {
		return p
	}
	if p <= c.Scores[0] {
		return c.Values[0]
	}
	if p >= c.Scores[n-1] {
		return c.Values[n-1]
	}
	i := sort.SearchFloat64s(c.Scores, p)
	// c.Scores[i-1] < p <= c.Scores[i].
	lo, hi := c.Scores[i-1], c.Scores[i]
	if hi == lo {
		return c.Values[i]
	}
	frac := (p - lo) / (hi - lo)
	return c.Values[i-1] + frac*(c.Values[i]-c.Values[i-1])
}

// FitIsotonic fits isotonic regression on held-out (score, label) pairs
// by pool-adjacent-violators. Deterministic; ties in score are pooled.
func FitIsotonic(scores []float64, ys []bool) Isotonic {
	n := len(scores)
	if n == 0 || n != len(ys) {
		return Isotonic{}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	// Each block pools a run of examples: (sum of scores, sum of labels,
	// count). PAV merges a block into its predecessor whenever its mean
	// label would decrease.
	type block struct {
		scoreSum, ySum, n float64
	}
	blocks := make([]block, 0, n)
	for _, i := range order {
		y := 0.0
		if ys[i] {
			y = 1
		}
		blocks = append(blocks, block{scoreSum: scores[i], ySum: y, n: 1})
		for len(blocks) >= 2 {
			last, prev := blocks[len(blocks)-1], blocks[len(blocks)-2]
			if prev.ySum/prev.n <= last.ySum/last.n {
				break
			}
			blocks = blocks[:len(blocks)-1]
			blocks[len(blocks)-1] = block{
				scoreSum: prev.scoreSum + last.scoreSum,
				ySum:     prev.ySum + last.ySum,
				n:        prev.n + last.n,
			}
		}
	}
	out := Isotonic{
		Scores: make([]float64, len(blocks)),
		Values: make([]float64, len(blocks)),
	}
	for i, b := range blocks {
		out.Scores[i] = b.scoreSum / b.n
		out.Values[i] = b.ySum / b.n
	}
	return out
}

// logit is the inverse sigmoid, clamped away from 0 and 1 so calibration
// never sees infinities.
func logit(p float64) float64 {
	p = math.Min(math.Max(p, 1e-12), 1-1e-12)
	return math.Log(p / (1 - p))
}
