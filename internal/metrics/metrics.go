// Package metrics implements the evaluation metrics of Section VI-A:
// precision, recall, and F1 over matching predictions, plus the
// mean ± standard deviation aggregation the paper reports across three
// runs.
package metrics

import (
	"fmt"
	"math"

	"batcher/internal/entity"
)

// Confusion is a binary confusion matrix for the matching task.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction against a gold label. Unknown predictions are
// scored as non-matches — the conservative reading the harness applies to
// unparseable LLM answers.
func (c *Confusion) Add(gold, pred entity.Label) {
	p := pred == entity.Match
	g := gold == entity.Match
	switch {
	case g && p:
		c.TP++
	case !g && p:
		c.FP++
	case g && !p:
		c.FN++
	default:
		c.TN++
	}
}

// AddAll records aligned slices of gold labels and predictions.
func (c *Confusion) AddAll(gold, pred []entity.Label) {
	if len(gold) != len(pred) {
		panic(fmt.Sprintf("metrics: %d gold labels vs %d predictions", len(gold), len(pred)))
	}
	for i := range gold {
		c.Add(gold[i], pred[i])
	}
}

// Precision returns TP/(TP+FP); 0 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN); 0 when there are no gold positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, as a percentage in
// [0, 100] to match the paper's tables.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 100 * 2 * p * r / (p + r)
}

// String summarizes the matrix.
func (c Confusion) String() string {
	return fmt.Sprintf("P=%.1f%% R=%.1f%% F1=%.2f (tp=%d fp=%d fn=%d tn=%d)",
		100*c.Precision(), 100*c.Recall(), c.F1(), c.TP, c.FP, c.FN, c.TN)
}

// Summary is a mean ± population standard deviation over repeated runs,
// matching the paper's X.XX±Y.YY reporting.
type Summary struct {
	Mean, Std float64
}

// Summarize aggregates a slice of per-run values.
func Summarize(values []float64) Summary {
	n := len(values)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return Summary{Mean: mean, Std: math.Sqrt(ss / float64(n))}
}

// String renders "mean±std" with two decimals, like Table III.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f±%.2f", s.Mean, s.Std)
}
