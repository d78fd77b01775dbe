package feature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"batcher/internal/entity"
)

func rec(id string, kv ...string) entity.Record {
	var attrs, vals []string
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, kv[i])
		vals = append(vals, kv[i+1])
	}
	return entity.NewRecord(id, attrs, vals)
}

func TestStructureLRPaperExample(t *testing.T) {
	// Example 5: q1 = (Rashi / Here Comes the Fuzz / Dance,Music,Hip-Hop)
	// vs (Rashi / Here Comes The Fuzz [Explicit] / Music).
	p := entity.Pair{
		A: rec("a", "title", "Rashi", "album", "Here Comes the Fuzz", "genre", "Dance,Music,Hip-Hop"),
		B: rec("b", "title", "Rashi", "album", "Here Comes The Fuzz [Explicit]", "genre", "Music"),
	}
	v := NewLR().Extract(p)
	if len(v) != 3 {
		t.Fatalf("LR vector dim = %d, want 3", len(v))
	}
	if v[0] != 1 {
		t.Errorf("title sim = %v, want 1", v[0])
	}
	if v[1] < 0.6 || v[1] > 0.95 {
		t.Errorf("album sim = %v, want high band like paper's 0.73", v[1])
	}
	if v[2] < 0.1 || v[2] > 0.6 {
		t.Errorf("genre sim = %v, want low-mid band like paper's 0.42", v[2])
	}
}

func TestStructureJACDiffersFromLR(t *testing.T) {
	p := entity.Pair{
		A: rec("a", "title", "the quick brown fox"),
		B: rec("b", "title", "fox brown quick the"),
	}
	lr := NewLR().Extract(p)[0]
	jac := NewJAC().Extract(p)[0]
	if jac != 1 {
		t.Errorf("JAC of reordered tokens = %v, want 1", jac)
	}
	if lr >= jac {
		t.Errorf("LR (%v) should penalize reordering vs JAC (%v)", lr, jac)
	}
}

func TestStructureMissingAttribute(t *testing.T) {
	p := entity.Pair{
		A: rec("a", "title", "x", "price", "9"),
		B: rec("b", "title", "x"),
	}
	v := NewLR().Extract(p)
	if len(v) != 2 {
		t.Fatalf("dim = %d, want 2", len(v))
	}
	if v[1] != 0 {
		t.Errorf("missing attribute sim = %v, want 0", v[1])
	}
}

func TestStructureRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		p := entity.Pair{A: rec("a", "x", a), B: rec("b", "x", b)}
		for _, ex := range []Extractor{NewLR(), NewJAC()} {
			v := ex.Extract(p)
			if len(v) != 1 || v[0] < 0 || v[0] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSemanticNormalized(t *testing.T) {
	s := NewSEM()
	p := entity.Pair{
		A: rec("a", "title", "apple iphone 13"),
		B: rec("b", "title", "iphone 13 apple"),
	}
	v := s.Extract(p)
	if len(v) != DefaultSemanticDim {
		t.Fatalf("dim = %d, want %d", len(v), DefaultSemanticDim)
	}
	var n float64
	for _, x := range v {
		n += x * x
	}
	if math.Abs(n-1) > 1e-9 {
		t.Errorf("embedding norm^2 = %v, want 1", n)
	}
}

func TestSemanticSimilarTextsCloser(t *testing.T) {
	s := NewSEM()
	a := s.Embed("apple iphone 13 pro max graphite 256gb")
	b := s.Embed("apple iphone 13 pro graphite 128gb")
	c := s.Embed("samsung galaxy tab s7 tablet wifi")
	if Euclidean(a, b) >= Euclidean(a, c) {
		t.Errorf("similar texts not closer: d(a,b)=%v d(a,c)=%v", Euclidean(a, b), Euclidean(a, c))
	}
}

func TestSemanticDeterministic(t *testing.T) {
	s := NewSEM()
	a := s.Embed("hello world")
	b := s.Embed("hello world")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic")
		}
	}
}

func TestSemanticEmptyText(t *testing.T) {
	v := NewSEM().Embed("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("embedding of empty text should be zero vector")
		}
	}
}

func TestSemanticDimOverride(t *testing.T) {
	s := &Semantic{Buckets: 16}
	if got := len(s.Embed("abc def")); got != 16 {
		t.Errorf("custom dim embed len = %d, want 16", got)
	}
	if s.Dim(99) != 16 {
		t.Errorf("Dim = %d, want 16", s.Dim(99))
	}
	zero := &Semantic{}
	if zero.Dim(0) != DefaultSemanticDim {
		t.Error("zero Buckets should default dims")
	}
}

func TestEuclidean(t *testing.T) {
	a := Vector{0, 0}
	b := Vector{3, 4}
	if got := Euclidean(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("Euclidean = %v, want 5", got)
	}
	if got := Euclidean(a, a); got != 0 {
		t.Errorf("Euclidean self = %v, want 0", got)
	}
}

func TestEuclideanLengthMismatch(t *testing.T) {
	a := Vector{1, 2}
	b := Vector{1, 2, 2}
	if got := Euclidean(a, b); math.Abs(got-2) > 1e-12 {
		t.Errorf("Euclidean padded = %v, want 2", got)
	}
}

func TestEuclideanMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	randVec := func() Vector {
		v := make(Vector, 4)
		for i := range v {
			v[i] = r.Float64()
		}
		return v
	}
	for i := 0; i < 200; i++ {
		a, b, c := randVec(), randVec(), randVec()
		if math.Abs(Euclidean(a, b)-Euclidean(b, a)) > 1e-12 {
			t.Fatal("Euclidean asymmetric")
		}
		if Euclidean(a, b) > Euclidean(a, c)+Euclidean(c, b)+1e-12 {
			t.Fatal("Euclidean violates triangle inequality")
		}
	}
}

func TestCosineDistance(t *testing.T) {
	a := Vector{1, 0}
	b := Vector{0, 1}
	if got := CosineDistance(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("CosineDistance orthogonal = %v, want 1", got)
	}
	if got := CosineDistance(a, a); math.Abs(got) > 1e-12 {
		t.Errorf("CosineDistance self = %v, want 0", got)
	}
	if got := CosineDistance(a, Vector{-1, 0}); math.Abs(got-2) > 1e-12 {
		t.Errorf("CosineDistance opposite = %v, want 2", got)
	}
	if got := CosineDistance(Vector{0, 0}, a); got != 1 {
		t.Errorf("CosineDistance zero vec = %v, want 1", got)
	}
}

// TestDistancesSymmetricToTheBit pins the Distance contract the shared
// distance sweep rests on: swapping the arguments changes nothing, not
// even the last bit, for vectors of unequal length, zero vectors and
// components that are infinite or NaN. (Any two NaN results count as
// equal: every comparison against a threshold reads them alike.)
func TestDistancesSymmetricToTheBit(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-320, 1e300}
	randVec := func() Vector {
		v := make(Vector, rnd.Intn(7))
		zero := rnd.Intn(5) == 0
		for i := range v {
			switch {
			case zero:
			case rnd.Intn(6) == 0:
				v[i] = special[rnd.Intn(len(special))]
			default:
				v[i] = rnd.NormFloat64() * math.Pow(10, float64(rnd.Intn(7)-3))
			}
		}
		return v
	}
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
	}
	for name, dist := range map[string]Distance{"Euclidean": Euclidean, "CosineDistance": CosineDistance} {
		for i := 0; i < 20000; i++ {
			a, b := randVec(), randVec()
			if ab, ba := dist(a, b), dist(b, a); !same(ab, ba) {
				t.Fatalf("%s(%v, %v) = %v (%#x), swapped %v (%#x)",
					name, a, b, ab, math.Float64bits(ab), ba, math.Float64bits(ba))
			}
		}
	}
	// The diagonal is a distance like any other, not 0 by definition: a
	// zero vector is at cosine distance 1 from itself, so it is outside
	// its own ε-neighbourhood for any eps < 1.
	if got := CosineDistance(Vector{0, 0}, Vector{0, 0}); got != 1 {
		t.Errorf("CosineDistance(0, 0) = %v, want 1", got)
	}
	if got := Euclidean(Vector{0, 0}, Vector{0, 0}); got != 0 {
		t.Errorf("Euclidean(0, 0) = %v, want 0", got)
	}
}

func TestExtractAll(t *testing.T) {
	pairs := []entity.Pair{
		{A: rec("a", "x", "1"), B: rec("b", "x", "1")},
		{A: rec("c", "x", "1"), B: rec("d", "x", "2")},
	}
	vs := ExtractAll(NewLR(), pairs)
	if len(vs) != 2 {
		t.Fatalf("ExtractAll len = %d", len(vs))
	}
	if vs[0][0] != 1 {
		t.Errorf("identical pair sim = %v", vs[0][0])
	}
	if vs[1][0] >= 1 {
		t.Errorf("different pair sim = %v, want < 1", vs[1][0])
	}
}

func TestMeanSimilarity(t *testing.T) {
	if got := MeanSimilarity(Vector{1, 0.5, 0}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MeanSimilarity = %v, want 0.5", got)
	}
	if got := MeanSimilarity(nil); got != 0 {
		t.Errorf("MeanSimilarity(nil) = %v, want 0", got)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func BenchmarkStructureLR(b *testing.B) {
	p := entity.Pair{
		A: rec("a", "title", "Apple iPhone 13 Pro Max 256GB", "brand", "Apple", "price", "1099.00"),
		B: rec("b", "title", "iPhone 13 Pro Max (256 GB) graphite", "brand", "apple inc", "price", "1,099"),
	}
	ex := NewLR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex.Extract(p)
	}
}

func BenchmarkSemanticEmbed(b *testing.B) {
	s := NewSEM()
	text := "title: Apple iPhone 13 Pro Max 256GB graphite, brand: Apple, price: 1099.00 [SEP] title: iPhone 13 Pro Max, brand: apple, price: 1099"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Embed(text)
	}
}
