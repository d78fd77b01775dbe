// Package feature implements the two feature extractors of Section III-B:
//
//   - the structure-aware extractor, which maps an entity pair to the vector
//     of per-attribute string similarities (Levenshtein ratio or Jaccard),
//     capturing attribute-matching signal; and
//   - the semantics-based extractor, which embeds the serialized pair with a
//     dense sentence encoder. Offline we substitute SBERT with a hashed
//     character-n-gram embedding (see docs/ARCHITECTURE.md, "Offline
//     substitutions"): it is content-based and task-agnostic, which is
//     exactly the property the paper's Table VII attributes the semantic
//     extractor's deficit to.
//
// Extractors implement a common interface so the clustering and selection
// stages are agnostic to the choice, mirroring the design space's
// pluggability. Extraction is per pair: ExtractAll maps an extractor's
// Extract over a slice, across CPUs for batches of 64 pairs or more.
package feature

import (
	"hash/fnv"
	"math"

	"batcher/internal/entity"
	"batcher/internal/strsim"
	"batcher/internal/workpool"
)

// Vector is a dense feature vector.
type Vector []float64

// Extractor maps an entity pair to a feature vector. Implementations must
// be deterministic and safe for concurrent use.
type Extractor interface {
	// Extract returns the feature vector of the pair.
	Extract(p entity.Pair) Vector
	// Dim returns the dimensionality of vectors produced for pairs with m
	// attributes. Semantic extractors ignore m.
	Dim(m int) int
	// Name identifies the extractor in reports ("LR", "JAC", "SEM").
	Name() string
}

// StringSim is a per-attribute string similarity function in [0, 1].
type StringSim func(a, b string) float64

// Structure is the structure-aware extractor: one similarity score per
// aligned attribute (Example 5 of the paper).
type Structure struct {
	// Sim is the per-attribute similarity; LevenshteinRatio for BATCHER-LR,
	// Jaccard for BATCHER-JAC.
	Sim StringSim
	// Label names the variant.
	Label string
}

// NewLR returns the Levenshtein-ratio structure-aware extractor (the
// paper's best-performing choice, BATCHER-LR).
func NewLR() *Structure {
	return &Structure{Sim: strsim.LevenshteinRatio, Label: "LR"}
}

// NewJAC returns the Jaccard structure-aware extractor (BATCHER-JAC).
func NewJAC() *Structure {
	return &Structure{Sim: strsim.Jaccard, Label: "JAC"}
}

// unionAttrs returns the pair's union schema — A's attributes followed
// by any present only in B. When A's schema already covers B (the
// common case: both tables share one schema), A's slice is returned
// as-is, read-only, skipping Pair.Attrs' per-call copy.
func unionAttrs(p entity.Pair) []string {
	for _, b := range p.B.Attrs {
		found := false
		for _, a := range p.A.Attrs {
			if a == b {
				found = true
				break
			}
		}
		if !found {
			return p.Attrs()
		}
	}
	return p.A.Attrs
}

// Extract implements Extractor: v = (sim(a.attr1, b.attr1), ..., sim_m).
// Attributes present on only one side score 0 (maximally dissimilar),
// since a missing value carries no matching evidence.
func (s *Structure) Extract(p entity.Pair) Vector {
	attrs := unionAttrs(p)
	v := make(Vector, len(attrs))
	for i, attr := range attrs {
		va, oka := p.A.Get(attr)
		vb, okb := p.B.Get(attr)
		if !oka || !okb {
			v[i] = 0
			continue
		}
		v[i] = s.Sim(va, vb)
	}
	return v
}

// Dim implements Extractor.
func (s *Structure) Dim(m int) int { return m }

// Name implements Extractor.
func (s *Structure) Name() string { return s.Label }

// Semantic is the semantics-based extractor: a dense embedding of the
// serialized pair text. It stands in for SBERT/RoBERTa sentence encoders.
//
// The embedding hashes character trigrams and word tokens of the serialized
// text into a fixed number of buckets with signed contributions, then
// L2-normalizes — a classic feature-hashing sentence representation. Like a
// PLM embedding it reflects surface content and general lexical overlap but
// carries no attribute-alignment signal, which is the property Table VII's
// comparison isolates.
type Semantic struct {
	// Buckets is the embedding dimensionality.
	Buckets int
}

// DefaultSemanticDim is the embedding size used when Buckets is zero,
// matching SBERT-base's 384 dimensions.
const DefaultSemanticDim = 384

// NewSEM returns the semantics-based extractor (BATCHER-SEM).
func NewSEM() *Semantic { return &Semantic{Buckets: DefaultSemanticDim} }

// Extract implements Extractor.
func (s *Semantic) Extract(p entity.Pair) Vector {
	return s.Embed(p.Serialize())
}

// Embed returns the normalized hashed-feature embedding of arbitrary text.
func (s *Semantic) Embed(text string) Vector {
	dim := s.Buckets
	if dim <= 0 {
		dim = DefaultSemanticDim
	}
	v := make(Vector, dim)
	addFeature := func(f string, weight float64) {
		h := fnv.New64a()
		h.Write([]byte(f))
		x := h.Sum64()
		idx := int(x % uint64(dim))
		sign := 1.0
		if (x>>32)&1 == 1 {
			sign = -1
		}
		v[idx] += sign * weight
	}
	toks := strsim.Tokenize(text)
	for _, t := range toks {
		addFeature("w:"+t, 1)
		rs := []rune(t)
		for i := 0; i+3 <= len(rs); i++ {
			addFeature("g:"+string(rs[i:i+3]), 0.5)
		}
	}
	// Bigrams of adjacent tokens capture a little phrase context, as
	// contextual encoders do.
	for i := 0; i+1 < len(toks); i++ {
		addFeature("b:"+toks[i]+"_"+toks[i+1], 0.7)
	}
	normalize(v)
	return v
}

// Dim implements Extractor.
func (s *Semantic) Dim(int) int {
	if s.Buckets <= 0 {
		return DefaultSemanticDim
	}
	return s.Buckets
}

// Name implements Extractor.
func (s *Semantic) Name() string { return "SEM" }

func normalize(v Vector) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}

// minParallelExtract is the batch size below which ExtractAll stays
// sequential: goroutine fan-out costs more than it saves on tiny
// batches.
const minParallelExtract = 64

// ExtractAll maps the extractor over a pair slice: out[i] is
// ex.Extract(pairs[i]). Batches of minParallelExtract pairs or more fan
// out across CPUs (Extractor implementations are documented
// concurrent-safe); the output is the same either way.
func ExtractAll(ex Extractor, pairs []entity.Pair) []Vector {
	out := make([]Vector, len(pairs))
	workers := workpool.Workers()
	if len(pairs) < minParallelExtract {
		workers = 1
	}
	workpool.For(workers, len(pairs), func(i int) {
		out[i] = ex.Extract(pairs[i])
	})
	return out
}

// Euclidean returns the Euclidean distance between two vectors. Vectors of
// different lengths are compared over the shorter prefix with the extra
// components of the longer vector counted against the distance, so the
// function remains a metric over padded vectors.
func Euclidean(a, b Vector) float64 {
	var sum float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	for i := n; i < len(a); i++ {
		sum += a[i] * a[i]
	}
	for i := n; i < len(b); i++ {
		sum += b[i] * b[i]
	}
	return math.Sqrt(sum)
}

// CosineDistance returns 1 - cosine similarity of a and b, in [0, 2].
// Zero vectors have distance 1 to everything (no information).
func CosineDistance(a, b Vector) float64 {
	var dot, na, nb float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
	}
	for _, x := range a {
		na += x * x
	}
	for _, x := range b {
		nb += x * x
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/(math.Sqrt(na)*math.Sqrt(nb))
}

// Distance is a distance function over feature vectors. It need not be a
// metric (CosineDistance is not), but it must be symmetric to the bit —
// Distance(a, b) and Distance(b, a) are the same float64, any NaN
// counting as the same value — pure, and safe for concurrent calls:
// clustering and covering evaluate a window's pairs once, as
// Distance(v[i], v[j]) for i <= j only, across several goroutines, and
// read the result for (j, i) too. Pure means a function of the two
// vectors' float64 bits (their lengths and math.Float64bits of every
// component) and nothing else, so vectors with the same bits are at the
// same distance from everything: the calibration and the sweep measure
// each distinct vector once and share the result with its copies. Distance(a, a) is evaluated
// like any other pair and may be non-zero. Euclidean and CosineDistance
// satisfy all of this.
type Distance func(a, b Vector) float64

// MeanSimilarity returns the mean of the components of a structure-aware
// vector: a cheap scalar summary of how alike the two records of a pair
// are. It is used by difficulty models and tests.
func MeanSimilarity(v Vector) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// MatchEvidence summarizes a structure-aware vector as scalar evidence
// that the pair matches, in [0, 1]. It weights the first attribute — the
// name/title, the primary identifier in every benchmark schema — above
// the mean of the rest, reflecting how both humans and LLMs resolve
// entities: the identifying attribute dominates weaker signals like
// shared categories or formats. Values above ~EvidenceBoundary read as
// "probably a match".
func MatchEvidence(v Vector) float64 {
	if len(v) == 0 {
		return 0
	}
	return 0.55*v[0] + 0.45*MeanSimilarity(v)
}

// EvidenceBoundary is the decision threshold on MatchEvidence separating
// likely matches from likely non-matches in the benchmark geometry.
const EvidenceBoundary = 0.66

// Alignment returns the signed agreement between a pair's structural
// evidence and a hypothesized label: positive when the evidence supports
// the label, negative when it contradicts it (a "deceptive" pair — e.g. a
// hard negative whose key attributes agree). The magnitude is bounded by
// max(EvidenceBoundary, 1-EvidenceBoundary).
func Alignment(v Vector, isMatch bool) float64 {
	a := MatchEvidence(v) - EvidenceBoundary
	if !isMatch {
		a = -a
	}
	return a
}
