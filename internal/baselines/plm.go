// Package baselines implements the comparison systems of Section VI-A:
// the PLM-based matchers Ditto, JointBERT, and RobEM, and the LLM-based
// ManualPrompt approach of Narayan et al.
//
// Offline substitution (docs/ARCHITECTURE.md, "Offline substitutions"):
// the PLM matchers are real trainable classifiers — a head over a dense
// text embedding of the serialized pair (standing in for a fine-tuned
// transformer encoder). The embedding is high-dimensional and
// task-agnostic, so heads need hundreds-to-thousands of labeled pairs
// before they generalize, which reproduces Figure 7's sample-efficiency
// crossover against BATCHER from genuine optimization rather than a
// lookup table. Per-baseline profiles (capacity, imbalance
// handling) mirror each system's published traits: JointBERT's extra
// objective gives it a capacity edge at scale; RobEM's class-imbalance
// fixes help it on skewed datasets.
package baselines

import (
	"fmt"

	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/metrics"
	"batcher/internal/ml"
)

// PLM is a trainable pre-trained-language-model matcher stand-in.
type PLM struct {
	// Name identifies the baseline in reports.
	Name string

	hidden    int // MLP width; 0 selects logistic regression
	epochs    int
	lr        float64
	l2        float64
	posWeight float64 // class-imbalance reweighting
	useStruct bool    // append structure-aware features to the embedding
	embedDim  int
}

// NewDitto returns the Ditto stand-in: a linear head over the pair
// embedding with moderate imbalance handling (Ditto injects domain
// knowledge; the structural feature augmentation models that).
func NewDitto() *PLM {
	return &PLM{Name: "Ditto", hidden: 0, epochs: 60, lr: 0.08, l2: 1e-4,
		posWeight: 2.5, useStruct: true, embedDim: 384}
}

// NewJointBERT returns the JointBERT stand-in: a wider nonlinear head
// (its dual training objective buys extra capacity) but no structural
// augmentation and weaker imbalance handling.
func NewJointBERT() *PLM {
	return &PLM{Name: "JointBERT", hidden: 16, epochs: 60, lr: 0.05, l2: 1e-4,
		posWeight: 1.5, useStruct: false, embedDim: 384}
}

// NewRobEM returns the RobEM stand-in: like Ditto but with aggressive
// class-imbalance correction, its headline contribution.
func NewRobEM() *PLM {
	return &PLM{Name: "RobEM", hidden: 0, epochs: 60, lr: 0.08, l2: 1e-4,
		posWeight: 6, useStruct: true, embedDim: 384}
}

// PLMs lists the three baselines in the paper's order.
func PLMs() []*PLM {
	return []*PLM{NewDitto(), NewJointBERT(), NewRobEM()}
}

// featurize builds the baseline's input representation for a pair: the
// standard sentence-pair combination of the two record embeddings,
// concat(|ea-eb|, ea*eb), which is how PLM matchers consume encoder
// outputs. The signal a head must learn (small differences, aligned
// products) is spread over hundreds of dimensions, so generalization
// requires the label volumes Figure 7 sweeps.
func (p *PLM) featurize(sem *feature.Semantic, lr *feature.Structure, pair entity.Pair) []float64 {
	ea := sem.Embed(pair.A.Serialize())
	eb := sem.Embed(pair.B.Serialize())
	out := make([]float64, 0, 2*len(ea)+8)
	for i := range ea {
		d := ea[i] - eb[i]
		if d < 0 {
			d = -d
		}
		out = append(out, d)
	}
	for i := range ea {
		out = append(out, ea[i]*eb[i])
	}
	if p.useStruct {
		out = lr.Extract(out, pair)
	}
	return out
}

// Fitted is a trained PLM baseline ready for prediction.
type Fitted struct {
	plm  *PLM
	sem  *feature.Semantic
	lr   *feature.Structure
	std  *ml.Standardizer
	head ml.Classifier
}

// Train fine-tunes the baseline on up to nTrain pairs of train (0 or
// negative means all). Seed drives initialization and shuffling.
func (p *PLM) Train(train []entity.Pair, nTrain int, seed int64) (*Fitted, error) {
	if nTrain <= 0 || nTrain > len(train) {
		nTrain = len(train)
	}
	if nTrain == 0 {
		return nil, fmt.Errorf("baselines: %s needs training data", p.Name)
	}
	sem := &feature.Semantic{Buckets: p.embedDim}
	lr := feature.NewLR()
	sub := train[:nTrain]
	xs := make([][]float64, len(sub))
	for i, pair := range sub {
		xs[i] = p.featurize(sem, lr, pair)
	}
	std := ml.FitStandardizer(xs)
	data := make([]ml.Example, len(sub))
	for i, pair := range sub {
		y := 0.0
		if pair.Truth == entity.Match {
			y = 1
		}
		data[i] = ml.Example{X: std.Apply(xs[i]), Y: y}
	}
	if err := ml.CheckDims(data); err != nil {
		return nil, err
	}
	var head ml.Classifier
	if p.hidden > 0 {
		head = ml.TrainMLP(data, ml.MLPConfig{
			Hidden: p.hidden, Epochs: p.epochs, LR: p.lr, L2: p.l2,
			PosWeight: p.posWeight, Seed: seed,
		})
	} else {
		head = ml.TrainLogReg(data, ml.LogRegConfig{
			Epochs: p.epochs, LR: p.lr, L2: p.l2,
			PosWeight: p.posWeight, Seed: seed,
		})
	}
	return &Fitted{plm: p, sem: sem, lr: lr, std: std, head: head}, nil
}

// Predict labels a pair.
func (f *Fitted) Predict(pair entity.Pair) entity.Label {
	x := f.std.Apply(f.plm.featurize(f.sem, f.lr, pair))
	if ml.Predict(f.head, x) {
		return entity.Match
	}
	return entity.NonMatch
}

// Evaluate scores the fitted model on test pairs.
func (f *Fitted) Evaluate(test []entity.Pair) metrics.Confusion {
	var c metrics.Confusion
	for _, pair := range test {
		c.Add(pair.Truth, f.Predict(pair))
	}
	return c
}

// LearningCurvePoint is one (training size, F1) measurement.
type LearningCurvePoint struct {
	TrainSize int
	F1        float64
}
