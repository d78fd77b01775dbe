// Package cascade implements the calibrated pre-filter of the model
// cascade: a cheap learned scorer over token-Jaccard features, fitted
// with Platt or isotonic calibration so its probabilities support
// three-way routing — Auto-Yes above tau-hi, Auto-No below tau-lo, and
// an Ambiguous band in between that is the only traffic the LLM tiers
// ever see. Together with core's tier router (Config.CheapModel +
// llm.NewTiered) it turns the single-model spend into an explicit
// dollars-per-F1 frontier: auto-resolved pairs are free, the ambiguous
// band goes to the cheap model in large batches, and only low-margin or
// low-confidence batches escalate to the expensive model.
package cascade

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/ml"
)

// Route is the pre-filter's three-way decision for one pair.
type Route int

const (
	// RouteAutoNo resolves the pair as a non-match without any LLM call.
	RouteAutoNo Route = iota
	// RouteAmbiguous sends the pair to the LLM tiers.
	RouteAmbiguous
	// RouteAutoYes resolves the pair as a match without any LLM call.
	RouteAutoYes
)

// String names the route for logs and reports.
func (r Route) String() string {
	switch r {
	case RouteAutoNo:
		return "auto-no"
	case RouteAutoYes:
		return "auto-yes"
	default:
		return "ambiguous"
	}
}

// Config parameterizes training of a Prefilter. The zero value is
// completed with the defaults below.
type Config struct {
	// TauLo and TauHi are the routing thresholds: calibrated probability
	// below TauLo auto-resolves to non-match, above TauHi to match.
	// Defaults 0.05 and 0.95.
	TauLo, TauHi float64
	// Isotonic selects isotonic-regression calibration instead of the
	// default Platt scaling. Isotonic needs more calibration data but
	// makes no shape assumption.
	Isotonic bool
	// Extractor maps pairs to feature vectors; default the Jaccard
	// extractor (cheap: one allocation-free one-shot kernel per
	// attribute).
	Extractor feature.Extractor
	// Seed drives the learned scorer's training.
	Seed int64
}

func (c Config) applyDefaults() Config {
	if c.TauLo <= 0 {
		c.TauLo = 0.05
	}
	if c.TauHi <= 0 {
		c.TauHi = 0.95
	}
	if c.Extractor == nil {
		c.Extractor = feature.NewJAC()
	}
	return c
}

// Prefilter is a trained, calibrated router. It is immutable after Train
// and safe for concurrent use.
type Prefilter struct {
	ex    feature.Extractor
	std   *ml.Standardizer
	clf   ml.Classifier
	tauLo float64
	tauHi float64
}

// Train fits the pre-filter on labeled pairs: a logistic scorer over the
// extractor's features, then probability calibration on a held-out
// 30% split (Platt by default, isotonic with cfg.Isotonic). Pairs whose
// Truth is Unknown are skipped; training needs both classes present —
// use BootstrapLabels to weak-label an unlabeled sample first.
func Train(labeled []entity.Pair, cfg Config) (*Prefilter, error) {
	cfg = cfg.applyDefaults()
	if cfg.TauLo >= cfg.TauHi {
		return nil, fmt.Errorf("cascade: tau-lo %v must be below tau-hi %v", cfg.TauLo, cfg.TauHi)
	}
	var xs [][]float64
	var ys []bool
	for _, p := range labeled {
		if p.Truth == entity.Unknown {
			continue
		}
		xs = append(xs, cfg.Extractor.Extract(p))
		ys = append(ys, p.Truth == entity.Match)
	}
	if len(xs) < 4 {
		return nil, errors.New("cascade: need at least 4 labeled pairs to train")
	}
	var pos int
	for _, y := range ys {
		if y {
			pos++
		}
	}
	if pos == 0 || pos == len(ys) {
		return nil, errors.New("cascade: training pairs must include both classes")
	}
	// Deterministic interleaved fit/calibration split (~70/30): every
	// fourth example calibrates. Interleaving keeps both classes on both
	// sides for any reasonably mixed input order.
	var fit []ml.Example
	var calX [][]float64
	var calY []bool
	for i, x := range xs {
		y := 0.0
		if ys[i] {
			y = 1
		}
		if i%4 == 3 {
			calX = append(calX, x)
			calY = append(calY, ys[i])
		} else {
			fit = append(fit, ml.Example{X: x, Y: y})
		}
	}
	std := ml.FitStandardizer(xs)
	for i := range fit {
		fit[i].X = std.Apply(fit[i].X)
	}
	base := ml.TrainLogReg(fit, ml.LogRegConfig{Seed: cfg.Seed})
	scores := make([]float64, len(calX))
	for i, x := range calX {
		scores[i] = base.Prob(std.Apply(x))
	}
	var cal ml.Calibrator
	if cfg.Isotonic {
		cal = ml.FitIsotonic(scores, calY)
	} else {
		cal = ml.FitPlatt(scores, calY)
	}
	return &Prefilter{
		ex:    cfg.Extractor,
		std:   std,
		clf:   ml.Calibrated{Base: base, Cal: cal},
		tauLo: cfg.TauLo,
		tauHi: cfg.TauHi,
	}, nil
}

// Prob returns the calibrated match probability of the pair.
func (pf *Prefilter) Prob(p entity.Pair) float64 {
	return pf.clf.Prob(pf.std.Apply(pf.ex.Extract(p)))
}

// RouteOne routes a single pair.
func (pf *Prefilter) RouteOne(p entity.Pair) Route {
	prob := pf.Prob(p)
	switch {
	case prob < pf.tauLo:
		return RouteAutoNo
	case prob > pf.tauHi:
		return RouteAutoYes
	default:
		return RouteAmbiguous
	}
}

// WithThresholds returns a copy of the pre-filter routing at different
// thresholds, sharing the trained scorer. Threshold sweeps train once
// and clone per (tauLo, tauHi) point.
func (pf *Prefilter) WithThresholds(lo, hi float64) *Prefilter {
	c := *pf
	c.tauLo, c.tauHi = lo, hi
	return &c
}

// Routed is the pre-filter's decision over a window of candidates.
type Routed struct {
	// Pred holds the auto-resolved labels, aligned with the input window;
	// ambiguous positions are Unknown until the LLM answers them.
	Pred []entity.Label
	// Amb are the ambiguous pairs, in window order.
	Amb []entity.Pair
	// AmbIdx maps each Amb entry back to its window position.
	AmbIdx []int
	// AutoYes and AutoNo count the auto-resolved pairs.
	AutoYes, AutoNo int
}

// RouteAll routes a window of candidates, separating the ambiguous band
// (the only pairs that will cost LLM calls) from the auto-resolved mass.
func (pf *Prefilter) RouteAll(pairs []entity.Pair) Routed {
	r := Routed{Pred: make([]entity.Label, len(pairs))}
	for i, p := range pairs {
		switch pf.RouteOne(p) {
		case RouteAutoYes:
			r.Pred[i] = entity.Match
			r.AutoYes++
		case RouteAutoNo:
			r.Pred[i] = entity.NonMatch
			r.AutoNo++
		default:
			r.Pred[i] = entity.Unknown
			r.Amb = append(r.Amb, p)
			r.AmbIdx = append(r.AmbIdx, i)
		}
	}
	return r
}

// Fingerprint digests the trained scorer and thresholds into a short
// stable hex string. It is stamped into runstore.RunMeta so resuming a
// cascade run under different routing is refused instead of silently
// splicing two different tier decisions into one journal.
func (pf *Prefilter) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "tau=%.12g:%.12g\n", pf.tauLo, pf.tauHi)
	if lr, ok := baseOf(pf.clf).(*ml.LogReg); ok {
		for _, w := range lr.W {
			fmt.Fprintf(h, "w=%.12g\n", w)
		}
		fmt.Fprintf(h, "b=%.12g\n", lr.B)
	}
	for i := range pf.std.Mean {
		fmt.Fprintf(h, "s=%.12g:%.12g\n", pf.std.Mean[i], pf.std.Std[i])
	}
	switch cal := calOf(pf.clf).(type) {
	case ml.Platt:
		fmt.Fprintf(h, "platt=%.12g:%.12g\n", cal.A, cal.B)
	case ml.Isotonic:
		for i := range cal.Scores {
			fmt.Fprintf(h, "iso=%.12g:%.12g\n", cal.Scores[i], cal.Values[i])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

func baseOf(c ml.Classifier) ml.Classifier {
	if cc, ok := c.(ml.Calibrated); ok {
		return cc.Base
	}
	return c
}

func calOf(c ml.Classifier) ml.Calibrator {
	if cc, ok := c.(ml.Calibrated); ok {
		return cc.Cal
	}
	return nil
}

// BootstrapLabels returns a copy of pairs usable as cascade training
// data when no gold labels exist: pairs already carrying a Truth keep
// it, the rest are weak-labeled from structural match evidence. The
// weak labels are noisy on the ambiguous band — exactly the band the
// calibrated thresholds will route to the LLM anyway — so the resulting
// pre-filter remains useful for unsupervised pipelines.
func BootstrapLabels(pairs []entity.Pair) []entity.Pair {
	ex := feature.NewJAC()
	out := make([]entity.Pair, len(pairs))
	for i, p := range pairs {
		if p.Truth == entity.Unknown {
			if feature.MatchEvidence(ex.Extract(p)) >= feature.EvidenceBoundary {
				p.Truth = entity.Match
			} else {
				p.Truth = entity.NonMatch
			}
		}
		out[i] = p
	}
	return out
}
