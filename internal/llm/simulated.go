package llm

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/prompt"
	"batcher/internal/tokens"
)

// Oracle supplies the gold label for a pair identified by content. The
// simulator consults it the way a real LLM consults its world knowledge:
// the caller never sees the lookup, only the completion text.
type Oracle interface {
	Lookup(p entity.Pair) (entity.Label, bool)
}

// MapOracle is an Oracle backed by a map keyed on Pair content.
type MapOracle map[string]entity.Label

// OracleKey returns the content key a MapOracle indexes by. Record IDs are
// excluded: prompts do not carry them, so the simulator must recover truth
// from attribute content alone.
func OracleKey(p entity.Pair) string { return p.Serialize() }

// Lookup implements Oracle.
func (m MapOracle) Lookup(p entity.Pair) (entity.Label, bool) {
	l, ok := m[OracleKey(p)]
	return l, ok
}

// BuildOracle indexes labeled pairs for simulator lookups.
func BuildOracle(pairs []entity.Pair) MapOracle {
	m := make(MapOracle, len(pairs))
	for _, p := range pairs {
		if p.Truth != entity.Unknown {
			m[OracleKey(p)] = p.Truth
		}
	}
	return m
}

// Simulated is the offline LLM substrate. It consumes only the prompt
// string: entities are re-parsed from the text, demonstration relevance
// and batch geometry are recomputed from what the prompt actually says,
// and the answer for each question is the gold label flipped with a
// probability given by the model profile's logistic error model. Noise is
// seeded from a hash of (seed, model, prompt), so identical requests get
// identical completions while different demo selections or batchings
// genuinely change outcomes.
type Simulated struct {
	// Oracle resolves gold labels. Questions the oracle cannot resolve
	// are answered by thresholding structural similarity (the model's
	// "prior"), which is measurably worse — just like a real model facing
	// out-of-distribution inputs.
	Oracle Oracle
	// Seed decorrelates repeated runs; the paper's mean±σ over three runs
	// maps to three seeds.
	Seed int64
	// extractor computes the structural geometry the error model uses.
	extractor feature.Extractor
}

// NewSimulated returns a simulator over the given oracle.
func NewSimulated(oracle Oracle, seed int64) *Simulated {
	return &Simulated{Oracle: oracle, Seed: seed, extractor: feature.NewLR()}
}

// Complete implements Client. The simulator never blocks, so ctx is only
// consulted once on entry — enough to make cancellation deterministic for
// callers that cancel between batch calls.
func (s *Simulated) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	model, err := Lookup(req.Model)
	if err != nil {
		return Response{}, err
	}
	inTokens := tokens.Count(req.Prompt)
	if inTokens > model.ContextTokens {
		return Response{}, fmt.Errorf("%w: %d > %d (%s)", ErrContextLength, inTokens, model.ContextTokens, model.Name)
	}
	parsed, err := prompt.Parse(req.Prompt)
	if err != nil {
		// A prompt the parser cannot understand gets a free-text refusal,
		// like a confused live model.
		completion := "I'm sorry, I could not identify the entity pairs in the input."
		return Response{Completion: completion, InputTokens: inTokens, OutputTokens: tokens.Count(completion)}, nil
	}
	if !model.SupportsBatch && len(parsed.Questions) > 1 {
		// Reproduces the paper's Llama2 observation: under batch
		// prompting the model fails to produce usable output.
		completion := "As a language model, I will analyze the entities... " +
			"Entity A and Entity B share several attributes."
		return Response{Completion: completion, InputTokens: inTokens, OutputTokens: tokens.Count(completion)}, nil
	}
	rnd := rand.New(rand.NewSource(s.promptSeed(req)))
	completion := s.render(s.answer(model.Profile, parsed, rnd), rnd)
	return Response{
		Completion:   completion,
		InputTokens:  inTokens,
		OutputTokens: tokens.Count(completion),
	}, nil
}

// promptSeed derives the per-request RNG seed.
func (s *Simulated) promptSeed(req Request) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|", s.Seed, req.Model)
	h.Write([]byte(req.Prompt))
	return int64(h.Sum64())
}

// answer produces one label per question under the profile's error model.
func (s *Simulated) answer(p Profile, parsed *prompt.Parsed, rnd *rand.Rand) []entity.Label {
	qs := parsed.Questions
	qv := feature.ExtractAll(s.extractor, qs)
	demoPairs := make([]entity.Pair, len(parsed.Demos))
	for i, d := range parsed.Demos {
		demoPairs[i] = d.Pair
	}
	dv := feature.ExtractAll(s.extractor, demoPairs)
	contrast := batchContrast(qv)

	// Copy-answer collapse: a near-homogeneous batch sometimes gets one
	// answer stamped on every question (Section VI-C's explanation for
	// similarity batching underperforming even random batching).
	collapse := len(qs) > 1 && contrast < 0.22 && rnd.Float64() < p.CopyBias

	labels := make([]entity.Label, len(qs))
	var firstAnswer entity.Label
	for i, q := range qs {
		truth, known := entity.Unknown, false
		if s.Oracle != nil {
			truth, known = s.Oracle.Lookup(q)
		}
		if !known {
			// Out-of-oracle question: fall back to the structural prior.
			truth = entity.NonMatch
			if feature.MatchEvidence(qv[i]) > feature.EvidenceBoundary {
				truth = entity.Match
			}
		}
		// align > 0: the pair's surface evidence agrees with the truth
		// (easy); align ≈ 0: boundary pair; align < 0: deceptive pair
		// (hard negative with agreeing keys, or a heavily perturbed match).
		align := feature.Alignment(qv[i], truth == entity.Match)
		help := demoHelp(qv[i], dv)
		// Diverse batches reduce the model's reliance on demonstration
		// luck, which is what makes batch prompting's accuracy *stable*
		// across demo draws (Table III's smaller σ).
		effHelp := help * (1 - 0.45*contrast)
		score := p.Skill + alignSlope*align + p.DemoWeight*effHelp + p.ContrastWeight*contrast
		// Boundary pairs additionally confuse weaker models beyond what
		// the sigmoid's flat spot captures — unless a demonstration close
		// to the question (in task-relevant structural geometry) shows how
		// such a case resolves. This is the mechanism that rewards
		// demonstration selection in the feature space that best captures
		// ER relevance (the paper's Table VII finding).
		score -= p.AmbiguityWeight * boundaryGauss(align) * (1 - 0.8*help)
		if truth == entity.Match {
			score += p.MatchBias
		} else {
			score += p.NegContrastWeight * contrast
		}
		score -= p.TempNoise * Temperature * rnd.Float64()
		pCorrect := sigmoid(score)
		lab := truth
		if rnd.Float64() > pCorrect {
			lab = flip(truth)
		}
		if collapse && i > 0 {
			lab = firstAnswer
		}
		if i == 0 {
			firstAnswer = lab
		}
		labels[i] = lab
	}
	return labels
}

// alignSlope converts evidence alignment (roughly [-0.4, 0.4]) into logits.
const alignSlope = 10

// boundaryGauss peaks at align = 0, the maximally ambiguous pairs.
func boundaryGauss(align float64) float64 {
	return math.Exp(-(align * align) / (2 * 0.07 * 0.07))
}

// render emits the completion text for the chosen labels, with light
// phrasing variety so downstream parsing stays honest.
func (s *Simulated) render(labels []entity.Label, rnd *rand.Rand) string {
	var b strings.Builder
	for i, l := range labels {
		switch rnd.Intn(4) {
		case 0:
			if l == entity.Match {
				fmt.Fprintf(&b, "Question %d: Yes\n", i+1)
			} else {
				fmt.Fprintf(&b, "Question %d: No\n", i+1)
			}
		case 1:
			if l == entity.Match {
				fmt.Fprintf(&b, "Question %d: Yes, they refer to the same entity.\n", i+1)
			} else {
				fmt.Fprintf(&b, "Question %d: No, they refer to different entities.\n", i+1)
			}
		case 2:
			if l == entity.Match {
				fmt.Fprintf(&b, "Q%d: yes\n", i+1)
			} else {
				fmt.Fprintf(&b, "Q%d: no\n", i+1)
			}
		default:
			if l == entity.Match {
				fmt.Fprintf(&b, "Question %d: Yes, the records match.\n", i+1)
			} else {
				fmt.Fprintf(&b, "Question %d: No, key attributes differ.\n", i+1)
			}
		}
	}
	return b.String()
}

// demoHelp returns the benefit of the closest demonstration in [0,1].
// Distance is measured in the simulator's structural (LR) geometry — the
// space that actually captures ER relevance — so demonstrations selected
// in a weaker feature space (JAC, semantic) land measurably farther and
// help less. The narrow bandwidth makes the benefit decay quickly.
func demoHelp(q feature.Vector, demos []feature.Vector) float64 {
	if len(demos) == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, d := range demos {
		if dd := feature.Euclidean(q, d); dd < best {
			best = dd
		}
	}
	// Gaussian profile: any demonstration within covering range is almost
	// fully useful (which is why covering-based selection matches
	// topk-question's accuracy at a fraction of the labels), while help
	// decays sharply beyond it.
	return math.Exp(-(best * best) / (2 * 0.22 * 0.22))
}

// batchContrast returns the diversity of a question batch in [0,1]: the
// saturating mean pairwise feature distance. Single questions have zero
// contrast — there is nothing to compare against.
func batchContrast(qv []feature.Vector) float64 {
	if len(qv) < 2 {
		return 0
	}
	var sum float64
	var n int
	for i := 0; i < len(qv); i++ {
		for j := i + 1; j < len(qv); j++ {
			sum += feature.Euclidean(qv[i], qv[j])
			n++
		}
	}
	mean := sum / float64(n)
	return 1 - math.Exp(-mean/0.35)
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func flip(l entity.Label) entity.Label {
	if l == entity.Match {
		return entity.NonMatch
	}
	return entity.Match
}
