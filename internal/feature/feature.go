// Package feature implements the two feature extractors of Section III-B:
//
//   - the structure-aware extractor, which maps an entity pair to the vector
//     of per-attribute string similarities (Levenshtein ratio or Jaccard),
//     capturing attribute-matching signal; and
//   - the semantics-based extractor, which embeds the serialized pair with a
//     dense sentence encoder. Offline we substitute SBERT with a hashed
//     character-n-gram embedding (see DESIGN.md §3): it is content-based and
//     task-agnostic, which is exactly the property the paper's Table VII
//     attributes the semantic extractor's deficit to.
//
// Extractors implement a common interface so the clustering and selection
// stages are agnostic to the choice, mirroring the design space's
// pluggability.
package feature

import (
	"hash/fnv"
	"math"

	"batcher/internal/entity"
	"batcher/internal/profile"
	"batcher/internal/strsim"
)

// Vector is a dense feature vector.
type Vector []float64

// Clone returns a copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

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
	// profSim is the profile-kernel form of Sim, set by the NewJAC
	// constructor. When nil (a custom Sim, or an edit-distance Sim like
	// NewLR's), the extractor stays on the string path — ProfileOpts
	// reports no needs. Only token-set kernels benefit from precomputed
	// profiles; Levenshtein is parity per comparison (the string path
	// already runs pooled-scratch DP), so for it the per-record entity
	// builds and cache bookkeeping would be pure overhead.
	profSim func(a, b *profile.Profile) float64
	// profTokens marks profSim as a token-set kernel, so ProfileOpts
	// requests token data; edit-distance kernels would get cheaper
	// rune-only attribute profiles (see EntityOpts.AttrTokens).
	profTokens bool
}

// NewLR returns the Levenshtein-ratio structure-aware extractor (the
// paper's best-performing choice, BATCHER-LR). It extracts on the
// string path: edit distance gains nothing from token profiles.
func NewLR() *Structure {
	return &Structure{Sim: strsim.LevenshteinRatio, Label: "LR"}
}

// NewJAC returns the Jaccard structure-aware extractor (BATCHER-JAC).
func NewJAC() *Structure {
	return &Structure{Sim: strsim.Jaccard, Label: "JAC", profSim: profile.Jaccard, profTokens: true}
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

// ProfileOpts implements ProfiledExtractor: per-attribute profiles when
// the similarity has a profile-kernel form, nothing otherwise.
func (s *Structure) ProfileOpts() profile.EntityOpts {
	if s.profSim == nil {
		return profile.EntityOpts{}
	}
	return profile.EntityOpts{Attrs: true, AttrTokens: s.profTokens}
}

// ExtractProfiled implements ProfiledExtractor: Extract over the
// records' precomputed attribute profiles.
func (s *Structure) ExtractProfiled(p entity.Pair, pa, pb *profile.Entity) Vector {
	if s.profSim == nil || !pa.Opts().Attrs || !pb.Opts().Attrs {
		return s.Extract(p)
	}
	attrs := unionAttrs(p)
	v := make(Vector, len(attrs))
	for i, attr := range attrs {
		qa, oka := pa.Attr(attr)
		qb, okb := pb.Attr(attr)
		if !oka || !okb {
			v[i] = 0
			continue
		}
		v[i] = s.profSim(qa, qb)
	}
	return v
}

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

// ProfileOpts implements ProfiledExtractor: the serialized token
// stream, with the pair separator pre-resolved per entity.
func (s *Semantic) ProfileOpts() profile.EntityOpts {
	return profile.EntityOpts{Serialized: true, SepToken: "sep"}
}

// ExtractProfiled implements ProfiledExtractor. The pair text's token
// sequence is the concatenation of A's serialized tokens, the "sep"
// token, and B's serialized tokens, so the embedding accumulates the
// same features in the same order as Extract — bit-identical output —
// without serializing, lowering, or hashing feature strings per pair:
// every per-token hash comes from the interner's cache. The loops are
// spelled as package helpers rather than closures so the only
// allocation per pair is the output vector itself.
func (s *Semantic) ExtractProfiled(p entity.Pair, pa, pb *profile.Entity) Vector {
	if !pa.Opts().Serialized || !pb.Opts().Serialized {
		return s.Extract(p)
	}
	dim := s.Buckets
	if dim <= 0 {
		dim = DefaultSemanticDim
	}
	v := make(Vector, dim)
	in := pa.Interner()
	// The separator ID was resolved at entity-build time; the fallback
	// intern only runs for hand-built entities without a SepToken, so
	// the parallel per-pair path never touches the interner's lock.
	sep, ok := pa.SepID()
	if !ok {
		sep = in.Intern("sep")
	}
	seqA, seqB := pa.SerialTokens(), pb.SerialTokens()
	semEmitSeq(v, in, seqA)
	semEmitToken(v, in, sep)
	semEmitSeq(v, in, seqB)
	// Bigrams of adjacent tokens over the combined sequence, in the
	// same second pass the string path makes.
	prev, has := semBigramSeq(v, in, seqA, 0, false)
	prev, has = semBigramStep(v, in, prev, has, sep)
	semBigramSeq(v, in, seqB, prev, has)
	normalize(v)
	return v
}

// semAdd folds one hashed feature into the bucket vector, with the same
// index and sign derivation as the string path's addFeature.
func semAdd(v Vector, x uint64, weight float64) {
	idx := int(x % uint64(len(v)))
	sign := 1.0
	if (x>>32)&1 == 1 {
		sign = -1
	}
	v[idx] += sign * weight
}

// semEmitToken adds one token's word and trigram features.
func semEmitToken(v Vector, in *profile.Interner, id uint32) {
	word, grams := in.TokenFeatureHashes(id)
	semAdd(v, word, 1)
	for _, g := range grams {
		semAdd(v, g, 0.5)
	}
}

// semEmitSeq adds every token's features in sequence order.
func semEmitSeq(v Vector, in *profile.Interner, seq []uint32) {
	for _, id := range seq {
		semEmitToken(v, in, id)
	}
}

// semBigramStep advances the bigram scan by one token.
func semBigramStep(v Vector, in *profile.Interner, prev uint32, has bool, id uint32) (uint32, bool) {
	if has {
		semAdd(v, in.BigramFeatureHash(prev, id), 0.7)
	}
	return id, true
}

// semBigramSeq scans a token sequence, continuing from (prev, has).
func semBigramSeq(v Vector, in *profile.Interner, seq []uint32, prev uint32, has bool) (uint32, bool) {
	for _, id := range seq {
		prev, has = semBigramStep(v, in, prev, has, id)
	}
	return prev, has
}

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

// Hybrid concatenates structure-aware similarities with a down-weighted
// semantic embedding — an extension point beyond the paper's two extractor
// families, for schemas where some signal lives outside aligned attributes
// (e.g. free-text description fields). The semantic block is scaled by
// Blend so the structural components dominate distances, matching the
// paper's Finding 6.
type Hybrid struct {
	// Struct is the structure-aware component (default LR).
	Struct *Structure
	// Sem is the semantic component (default 64-bucket embedding; kept
	// small so it flavors rather than swamps the structural signal).
	Sem *Semantic
	// Blend scales the semantic block (default 0.25).
	Blend float64
}

// NewHybrid returns a hybrid extractor with defaults.
func NewHybrid() *Hybrid {
	return &Hybrid{Struct: NewLR(), Sem: &Semantic{Buckets: 64}, Blend: 0.25}
}

// Extract implements Extractor.
func (h *Hybrid) Extract(p entity.Pair) Vector {
	return h.combine(h.structOrDefault().Extract(p), h.semOrDefault().Extract(p))
}

// combine concatenates the structural block with the blend-scaled
// semantic block. Both extraction paths funnel here so their outputs
// cannot diverge.
func (h *Hybrid) combine(st, sem Vector) Vector {
	blend := h.Blend
	if blend <= 0 {
		blend = 0.25
	}
	out := make(Vector, 0, len(st)+len(sem))
	out = append(out, st...)
	for _, x := range sem {
		out = append(out, x*blend)
	}
	return out
}

// Dim implements Extractor.
func (h *Hybrid) Dim(m int) int {
	return h.structOrDefault().Dim(m) + h.semOrDefault().Dim(m)
}

// Name implements Extractor.
func (h *Hybrid) Name() string { return "HYB" }

// ProfileOpts implements ProfiledExtractor: the union of the two
// components' needs (attribute profiles only when the structural
// component has a profile-kernel similarity).
func (h *Hybrid) ProfileOpts() profile.EntityOpts {
	st := h.structOrDefault().ProfileOpts()
	return profile.EntityOpts{
		Attrs:      st.Attrs,
		AttrTokens: st.AttrTokens,
		Serialized: true,
		SepToken:   h.semOrDefault().ProfileOpts().SepToken,
	}
}

// ExtractProfiled implements ProfiledExtractor, delegating each block
// to the component's fast path (either component transparently falls
// back to its string path when the profiles lack its data).
func (h *Hybrid) ExtractProfiled(p entity.Pair, pa, pb *profile.Entity) Vector {
	return h.combine(h.structOrDefault().ExtractProfiled(p, pa, pb), h.semOrDefault().ExtractProfiled(p, pa, pb))
}

func (h *Hybrid) structOrDefault() *Structure {
	if h.Struct == nil {
		return NewLR()
	}
	return h.Struct
}

func (h *Hybrid) semOrDefault() *Semantic {
	if h.Sem == nil {
		return &Semantic{Buckets: 64}
	}
	return h.Sem
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
// read the result for (j, i) too. Distance(a, a) is evaluated like any
// other pair and may be non-zero. Euclidean and CosineDistance satisfy
// all of this.
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
