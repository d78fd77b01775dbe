// Package ml is a small from-scratch machine-learning substrate: logistic
// regression and a one-hidden-layer MLP trained with SGD and an L2
// penalty, plus feature standardization, class weighting and Platt
// calibration.
//
// It exists to give the PLM baseline stand-ins (internal/baselines) real
// trainable learners with real learning curves — Figure 7's
// sample-efficiency crossover comes out of actual optimization, not a
// lookup table — and the cascade pre-filter (internal/cascade) its
// calibrated scorer.
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Example is one training instance.
type Example struct {
	X []float64
	Y float64 // 0 or 1
}

// Classifier is a trained binary classifier.
type Classifier interface {
	// Prob returns P(y=1 | x).
	Prob(x []float64) float64
}

// Predict thresholds Prob at 0.5.
func Predict(c Classifier, x []float64) bool { return c.Prob(x) >= 0.5 }

// Standardizer shifts and scales features to zero mean, unit variance.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer estimates per-dimension statistics.
func FitStandardizer(xs [][]float64) *Standardizer {
	if len(xs) == 0 {
		return &Standardizer{}
	}
	d := len(xs[0])
	s := &Standardizer{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, x := range xs {
		for i := 0; i < d && i < len(x); i++ {
			s.Mean[i] += x[i]
		}
	}
	for i := range s.Mean {
		s.Mean[i] /= float64(len(xs))
	}
	for _, x := range xs {
		for i := 0; i < d && i < len(x); i++ {
			dv := x[i] - s.Mean[i]
			s.Std[i] += dv * dv
		}
	}
	for i := range s.Std {
		s.Std[i] = math.Sqrt(s.Std[i] / float64(len(xs)))
		if s.Std[i] < 1e-9 {
			s.Std[i] = 1
		}
	}
	return s
}

// Apply returns the standardized copy of x.
func (s *Standardizer) Apply(x []float64) []float64 {
	if len(s.Mean) == 0 {
		return append([]float64(nil), x...)
	}
	out := make([]float64, len(s.Mean))
	for i := range out {
		v := 0.0
		if i < len(x) {
			v = x[i]
		}
		out[i] = (v - s.Mean[i]) / s.Std[i]
	}
	return out
}

// LogRegConfig configures logistic regression training.
type LogRegConfig struct {
	// Epochs over the training data.
	Epochs int
	// LR is the learning rate.
	LR float64
	// L2 is the ridge penalty.
	L2 float64
	// PosWeight reweights the positive-class gradient (class imbalance
	// handling; RobEM's core trick).
	PosWeight float64
	// Seed drives shuffling and init.
	Seed int64
}

// LogReg is a trained logistic regression model.
type LogReg struct {
	W []float64
	B float64
}

// Prob implements Classifier.
func (m *LogReg) Prob(x []float64) float64 {
	z := m.B
	for i, w := range m.W {
		if i < len(x) {
			z += w * x[i]
		}
	}
	return sigmoid(z)
}

// TrainLogReg fits logistic regression with minibatch SGD.
func TrainLogReg(data []Example, cfg LogRegConfig) *LogReg {
	if len(data) == 0 {
		return &LogReg{}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 50
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.1
	}
	if cfg.PosWeight <= 0 {
		cfg.PosWeight = 1
	}
	d := len(data[0].X)
	rnd := rand.New(rand.NewSource(cfg.Seed))
	m := &LogReg{W: make([]float64, d)}
	idx := rand.New(rand.NewSource(cfg.Seed + 1)).Perm(len(data))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rnd.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		lr := cfg.LR / (1 + 0.05*float64(epoch))
		for _, i := range idx {
			ex := data[i]
			p := m.Prob(ex.X)
			g := p - ex.Y
			if ex.Y == 1 {
				g *= cfg.PosWeight
			}
			for j := 0; j < d && j < len(ex.X); j++ {
				m.W[j] -= lr * (g*ex.X[j] + cfg.L2*m.W[j])
			}
			m.B -= lr * g
		}
	}
	return m
}

// MLPConfig configures MLP training.
type MLPConfig struct {
	Hidden    int
	Epochs    int
	LR        float64
	L2        float64
	PosWeight float64
	Seed      int64
}

// MLP is a one-hidden-layer network with tanh activations.
type MLP struct {
	W1 [][]float64 // hidden x input
	B1 []float64
	W2 []float64 // hidden
	B2 float64
}

// Prob implements Classifier.
func (m *MLP) Prob(x []float64) float64 {
	z := m.B2
	for h := range m.W2 {
		a := m.B1[h]
		for i, w := range m.W1[h] {
			if i < len(x) {
				a += w * x[i]
			}
		}
		z += m.W2[h] * math.Tanh(a)
	}
	return sigmoid(z)
}

// TrainMLP fits the network with per-example backprop and SGD.
func TrainMLP(data []Example, cfg MLPConfig) *MLP {
	if cfg.Hidden <= 0 {
		cfg.Hidden = 8
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 80
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.05
	}
	if cfg.PosWeight <= 0 {
		cfg.PosWeight = 1
	}
	d := 0
	if len(data) > 0 {
		d = len(data[0].X)
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	m := &MLP{
		W1: make([][]float64, cfg.Hidden),
		B1: make([]float64, cfg.Hidden),
		W2: make([]float64, cfg.Hidden),
	}
	scale := 1 / math.Sqrt(float64(d)+1)
	for h := range m.W1 {
		m.W1[h] = make([]float64, d)
		for i := range m.W1[h] {
			m.W1[h][i] = rnd.NormFloat64() * scale
		}
		m.W2[h] = rnd.NormFloat64() * scale
	}
	if len(data) == 0 {
		return m
	}
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	hid := make([]float64, cfg.Hidden)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rnd.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		lr := cfg.LR / (1 + 0.02*float64(epoch))
		for _, i := range idx {
			ex := data[i]
			// Forward.
			z := m.B2
			for h := range m.W2 {
				a := m.B1[h]
				for j, w := range m.W1[h] {
					if j < len(ex.X) {
						a += w * ex.X[j]
					}
				}
				hid[h] = math.Tanh(a)
				z += m.W2[h] * hid[h]
			}
			p := sigmoid(z)
			g := p - ex.Y
			if ex.Y == 1 {
				g *= cfg.PosWeight
			}
			// Backward: each parameter w takes w -= lr*(grad + L2*w),
			// with dh read before W2[h] moves.
			for h := range m.W2 {
				dh := g * m.W2[h] * (1 - hid[h]*hid[h])
				m.W2[h] -= lr * (g*hid[h] + cfg.L2*m.W2[h])
				w1 := m.W1[h]
				for j := range w1 {
					xj := 0.0
					if j < len(ex.X) {
						xj = ex.X[j]
					}
					w1[j] -= lr * (dh*xj + cfg.L2*w1[j])
				}
				m.B1[h] -= lr * (dh + cfg.L2*m.B1[h])
			}
			m.B2 -= lr * (g + cfg.L2*m.B2)
		}
	}
	return m
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// CheckDims validates that all examples share the same dimensionality.
func CheckDims(data []Example) error {
	if len(data) == 0 {
		return nil
	}
	d := len(data[0].X)
	for i, ex := range data {
		if len(ex.X) != d {
			return fmt.Errorf("ml: example %d has dim %d, want %d", i, len(ex.X), d)
		}
	}
	return nil
}
