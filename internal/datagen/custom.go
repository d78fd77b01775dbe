package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"batcher/internal/entity"
)

// CustomSpec lets users synthesize their own two-table ER benchmark from
// attribute generators, without writing a domain generator by hand. It is
// the extension point behind batcher.GenerateCustom.
type CustomSpec struct {
	// Name and Domain label the dataset.
	Name, Domain string
	// Attrs defines the schema; the first attribute is treated as the
	// identifying name/title (hard negatives keep its family, matches
	// perturb it).
	Attrs []AttrSpec
	// NumPairs and NumMatches size the candidate set.
	NumPairs, NumMatches int
	// Hardness in [0,1] scales perturbation strength (default 0.4).
	Hardness float64
	// HardNegShare is the hard-negative fraction of non-matches
	// (default 0.5).
	HardNegShare float64
}

// AttrSpec describes one attribute's value generator.
type AttrSpec struct {
	// Name is the attribute name.
	Name string
	// Vocab supplies token choices; values concatenate Tokens of them.
	Vocab []string
	// Tokens is how many vocabulary tokens compose a value (default 1).
	Tokens int
	// Numeric, when true, generates a number in [Min, Max] instead of
	// vocabulary tokens.
	Numeric  bool
	Min, Max int
	// KeepOnHardNeg keeps this attribute identical on hard negatives
	// (e.g. brand, venue); otherwise it is regenerated.
	KeepOnHardNeg bool
}

// Validate checks the spec is generable.
func (cs *CustomSpec) Validate() error {
	if cs.Name == "" {
		return fmt.Errorf("datagen: custom spec needs a name")
	}
	if len(cs.Attrs) == 0 {
		return fmt.Errorf("datagen: custom spec %q has no attributes", cs.Name)
	}
	if cs.NumPairs <= 0 || cs.NumMatches < 0 || cs.NumMatches > cs.NumPairs {
		return fmt.Errorf("datagen: custom spec %q has invalid pair counts %d/%d",
			cs.Name, cs.NumMatches, cs.NumPairs)
	}
	for i, a := range cs.Attrs {
		if a.Name == "" {
			return fmt.Errorf("datagen: custom spec %q attribute %d unnamed", cs.Name, i)
		}
		if !a.Numeric && len(a.Vocab) == 0 {
			return fmt.Errorf("datagen: custom spec %q attribute %q has no vocabulary", cs.Name, a.Name)
		}
		if a.Numeric && a.Max < a.Min {
			return fmt.Errorf("datagen: custom spec %q attribute %q has max < min", cs.Name, a.Name)
		}
	}
	return nil
}

// Spec converts the custom spec to an internal Spec.
func (cs *CustomSpec) Spec() (Spec, error) {
	if err := cs.Validate(); err != nil {
		return Spec{}, err
	}
	hardness := cs.Hardness
	if hardness <= 0 {
		hardness = 0.4
	}
	share := cs.HardNegShare
	if share <= 0 {
		share = 0.5
	}
	attrs := make([]string, len(cs.Attrs))
	for i, a := range cs.Attrs {
		attrs[i] = a.Name
	}
	gen := func(r *rand.Rand, id int) []string {
		vals := make([]string, len(cs.Attrs))
		for i, a := range cs.Attrs {
			vals[i] = a.generate(r)
		}
		return vals
	}
	hardNeg := func(r *rand.Rand, base []string) []string {
		out := append([]string(nil), base...)
		for i, a := range cs.Attrs {
			if a.KeepOnHardNeg {
				continue
			}
			if i == 0 {
				// Identifier: stay in the same family by swapping one
				// token, mirroring the built-in domains.
				toks := strings.Fields(base[0])
				if len(toks) > 0 && len(cs.Attrs[0].Vocab) > 0 {
					toks[r.Intn(len(toks))] = cs.Attrs[0].Vocab[r.Intn(len(cs.Attrs[0].Vocab))]
					out[0] = strings.Join(toks, " ")
				}
				continue
			}
			out[i] = a.generate(r)
		}
		return out
	}
	return Spec{
		Name:           cs.Name,
		Domain:         cs.Domain,
		Attrs:          attrs,
		NumPairs:       cs.NumPairs,
		NumMatches:     cs.NumMatches,
		Hardness:       hardness,
		HardNegShare:   share,
		ProfileWeights: []float64{2, 1.5, 1.5, 1, 1, 1},
		gen:            gen,
		hardNeg:        hardNeg,
	}, nil
}

// generate draws one attribute value.
func (a AttrSpec) generate(r *rand.Rand) string {
	if a.Numeric {
		span := a.Max - a.Min + 1
		return fmt.Sprintf("%d", a.Min+r.Intn(span))
	}
	n := a.Tokens
	if n <= 0 {
		n = 1
	}
	toks := make([]string, n)
	for i := range toks {
		toks[i] = a.Vocab[r.Intn(len(a.Vocab))]
	}
	return strings.Join(toks, " ")
}

// GenerateCustom materializes a user-defined benchmark.
func GenerateCustom(cs CustomSpec, seed int64) (*entity.Dataset, error) {
	spec, err := cs.Spec()
	if err != nil {
		return nil, err
	}
	return Generate(spec, seed), nil
}

// PipelineBenchSpec is the synthetic workload of the cascade sweep, the
// root package's window benchmarks and core's distance-budget test: the
// resume stress-test schema scaled to rows records per side, with the
// title vocabulary widened so token-blocking noise stays proportional
// and the candidate count is O(rows). Its token-blocked candidates are
// duplicate-rich under LR: a 512-candidate window holds about 250
// distinct feature vectors.
func PipelineBenchSpec(rows int) CustomSpec {
	vocab := make([]string, 600)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%03d", i)
	}
	maker := make([]string, 40)
	for i := range maker {
		maker[i] = fmt.Sprintf("maker%02d", i)
	}
	return CustomSpec{
		Name:   "pipebench",
		Domain: "stress",
		Attrs: []AttrSpec{
			{Name: "title", Vocab: vocab, Tokens: 4},
			{Name: "maker", Vocab: maker, Tokens: 1, KeepOnHardNeg: true},
			{Name: "year", Numeric: true, Min: 1990, Max: 2024},
		},
		NumPairs:   rows,
		NumMatches: rows / 4,
	}
}
