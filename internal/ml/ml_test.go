package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// linearlySeparable generates a 2D dataset split by x0 + x1 > 1.
func linearlySeparable(n int, seed int64) []Example {
	rnd := rand.New(rand.NewSource(seed))
	data := make([]Example, n)
	for i := range data {
		x := []float64{rnd.Float64() * 2, rnd.Float64() * 2}
		y := 0.0
		if x[0]+x[1] > 2 {
			y = 1
		}
		data[i] = Example{X: x, Y: y}
	}
	return data
}

// xorData is the classic non-linear dataset.
func xorData(n int, seed int64) []Example {
	rnd := rand.New(rand.NewSource(seed))
	data := make([]Example, n)
	for i := range data {
		a, b := rnd.Float64(), rnd.Float64()
		y := 0.0
		if (a > 0.5) != (b > 0.5) {
			y = 1
		}
		data[i] = Example{X: []float64{a, b}, Y: y}
	}
	return data
}

func TestLogRegLearnsLinear(t *testing.T) {
	train := linearlySeparable(400, 1)
	test := linearlySeparable(200, 2)
	m := TrainLogReg(train, LogRegConfig{Epochs: 80, LR: 0.3, Seed: 1})
	if acc := Evaluate(m, test); acc < 0.93 {
		t.Errorf("logreg accuracy = %.3f, want >= 0.93", acc)
	}
}

func TestLogRegEmptyData(t *testing.T) {
	m := TrainLogReg(nil, LogRegConfig{})
	if m.Prob([]float64{1, 2}) != 0.5 {
		t.Errorf("empty model Prob = %v, want 0.5", m.Prob([]float64{1, 2}))
	}
}

func TestLogRegDeterministic(t *testing.T) {
	train := linearlySeparable(100, 3)
	a := TrainLogReg(train, LogRegConfig{Epochs: 10, Seed: 9})
	b := TrainLogReg(train, LogRegConfig{Epochs: 10, Seed: 9})
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatal("training not deterministic for fixed seed")
		}
	}
}

func TestLogRegPosWeightShiftsRecall(t *testing.T) {
	// Imbalanced data: 5% positives. Upweighting positives should
	// increase the number of predicted positives.
	rnd := rand.New(rand.NewSource(4))
	var data []Example
	for i := 0; i < 600; i++ {
		pos := rnd.Float64() < 0.05
		x := []float64{rnd.NormFloat64() * 0.6, rnd.NormFloat64() * 0.6}
		if pos {
			x[0] += 1.0
			x[1] += 1.0
		}
		y := 0.0
		if pos {
			y = 1
		}
		data = append(data, Example{X: x, Y: y})
	}
	plain := TrainLogReg(data, LogRegConfig{Epochs: 40, Seed: 1})
	weighted := TrainLogReg(data, LogRegConfig{Epochs: 40, Seed: 1, PosWeight: 8})
	count := func(m *LogReg) int {
		n := 0
		for _, ex := range data {
			if Predict(m, ex.X) {
				n++
			}
		}
		return n
	}
	if count(weighted) <= count(plain) {
		t.Errorf("PosWeight did not increase positive predictions: %d vs %d", count(weighted), count(plain))
	}
}

func TestLogRegL2ShrinksWeights(t *testing.T) {
	train := linearlySeparable(300, 5)
	loose := TrainLogReg(train, LogRegConfig{Epochs: 60, Seed: 1})
	tight := TrainLogReg(train, LogRegConfig{Epochs: 60, Seed: 1, L2: 0.05})
	normLoose := math.Hypot(loose.W[0], loose.W[1])
	normTight := math.Hypot(tight.W[0], tight.W[1])
	if normTight >= normLoose {
		t.Errorf("L2 did not shrink weights: %.3f vs %.3f", normTight, normLoose)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	train := xorData(600, 1)
	test := xorData(300, 2)
	m := TrainMLP(train, MLPConfig{Hidden: 12, Epochs: 200, LR: 0.08, Seed: 3})
	if acc := Evaluate(m, test); acc < 0.9 {
		t.Errorf("MLP XOR accuracy = %.3f, want >= 0.9", acc)
	}
}

// mlpWeightsSHA256 is the SHA-256 of every trained parameter's float
// bits (W1 row by row, B1, W2, B2, little-endian), recorded on amd64.
const mlpWeightsSHA256 = "cc84e4a5702e71ac78d6eba121c0666367fbafe9ae7d07e8e6bca9e40ed65967"

// TestTrainMLPWeightsPinned holds TrainMLP's update rule to the bit: a
// fixed dataset with L2, class weighting and a 16-wide hidden layer
// must train to the recorded weights.
func TestTrainMLPWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("weights recorded on amd64, running on %s", runtime.GOARCH)
	}
	rnd := rand.New(rand.NewSource(21))
	data := xorData(240, 20)
	for i := range data {
		data[i].X = append(data[i].X, rnd.NormFloat64(), rnd.Float64()-0.5, data[i].X[0]*data[i].X[1])
	}
	m := TrainMLP(data, MLPConfig{Hidden: 16, Epochs: 25, LR: 0.07, L2: 3e-3, PosWeight: 2.5, Seed: 13})
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, row := range m.W1 {
		for _, w := range row {
			put(w)
		}
	}
	for _, v := range m.B1 {
		put(v)
	}
	for _, v := range m.W2 {
		put(v)
	}
	put(m.B2)
	if got := hex.EncodeToString(h.Sum(nil)); got != mlpWeightsSHA256 {
		t.Errorf("trained weights digest = %s, want %s (B2 = %016x)", got, mlpWeightsSHA256, math.Float64bits(m.B2))
	}
}

func TestMLPLogRegComparisonOnXOR(t *testing.T) {
	// Logistic regression cannot beat ~0.65 on XOR; the MLP must.
	train := xorData(600, 9)
	test := xorData(300, 10)
	lin := TrainLogReg(train, LogRegConfig{Epochs: 80, Seed: 1})
	mlp := TrainMLP(train, MLPConfig{Hidden: 12, Epochs: 200, LR: 0.08, Seed: 1})
	if Evaluate(lin, test) >= Evaluate(mlp, test) {
		t.Errorf("linear model should lose to MLP on XOR: %.3f vs %.3f",
			Evaluate(lin, test), Evaluate(mlp, test))
	}
}

func TestMLPEmptyData(t *testing.T) {
	m := TrainMLP(nil, MLPConfig{Hidden: 4})
	_ = m.Prob([]float64{0.5}) // must not panic
}

func TestStandardizer(t *testing.T) {
	xs := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	s := FitStandardizer(xs)
	if math.Abs(s.Mean[0]-3) > 1e-12 || math.Abs(s.Mean[1]-30) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
	out := s.Apply([]float64{3, 30})
	if math.Abs(out[0]) > 1e-12 || math.Abs(out[1]) > 1e-12 {
		t.Errorf("Apply(mean) = %v, want zeros", out)
	}
	// Transformed data has unit variance.
	var ss float64
	for _, x := range xs {
		v := s.Apply(x)
		ss += v[0] * v[0]
	}
	if math.Abs(ss/3-1) > 1e-9 {
		t.Errorf("variance after standardization = %v", ss/3)
	}
}

func TestStandardizerConstantFeature(t *testing.T) {
	s := FitStandardizer([][]float64{{5}, {5}, {5}})
	out := s.Apply([]float64{5})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Errorf("constant feature produced %v", out[0])
	}
}

func TestStandardizerEmpty(t *testing.T) {
	s := FitStandardizer(nil)
	out := s.Apply([]float64{1, 2})
	if len(out) != 2 || out[0] != 1 {
		t.Errorf("empty standardizer should pass through: %v", out)
	}
}

func TestCheckDims(t *testing.T) {
	good := []Example{{X: []float64{1, 2}}, {X: []float64{3, 4}}}
	if err := CheckDims(good); err != nil {
		t.Error(err)
	}
	bad := []Example{{X: []float64{1, 2}}, {X: []float64{3}}}
	if err := CheckDims(bad); err == nil {
		t.Error("dimension mismatch not detected")
	}
	if err := CheckDims(nil); err != nil {
		t.Error("empty data should pass")
	}
}

func TestLearningCurveMonotoneOnAverage(t *testing.T) {
	// More data should not hurt much: accuracy at n=400 must beat n=25.
	test := linearlySeparable(400, 100)
	accAt := func(n int) float64 {
		train := linearlySeparable(n, 11)
		m := TrainLogReg(train, LogRegConfig{Epochs: 60, LR: 0.3, Seed: 1})
		return Evaluate(m, test)
	}
	small, large := accAt(25), accAt(400)
	if large < small-0.02 {
		t.Errorf("learning curve inverted: n=25 %.3f vs n=400 %.3f", small, large)
	}
}

func BenchmarkTrainLogReg(b *testing.B) {
	train := linearlySeparable(500, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TrainLogReg(train, LogRegConfig{Epochs: 20, Seed: int64(i)})
	}
}

func BenchmarkTrainMLP(b *testing.B) {
	train := xorData(300, 1)
	for i := 0; i < b.N; i++ {
		TrainMLP(train, MLPConfig{Hidden: 8, Epochs: 20, Seed: int64(i)})
	}
}

// Evaluate returns accuracy of the classifier on data.
func Evaluate(c Classifier, data []Example) float64 {
	if len(data) == 0 {
		return 0
	}
	correct := 0
	for _, ex := range data {
		if Predict(c, ex.X) == (ex.Y == 1) {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}
