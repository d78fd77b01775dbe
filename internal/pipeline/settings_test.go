package pipeline

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/cascade"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
	"batcher/internal/runstore"
	"batcher/internal/shard"
)

// settingClass says what holds a run setting fixed across a resume.
type settingClass int

const (
	// fingerprinted settings are stamped into runMeta: a resume that
	// changes one fails with runstore.ErrRunMismatch before it replays.
	fingerprinted settingClass = iota + 1
	// boundByPairKeys settings shape the candidate stream, which each
	// journaled window's pair keys are checked against on replay.
	boundByPairKeys
	// neutral settings decide no answer and no bill; reason says why.
	neutral
	// harnessOnly settings are not fingerprinted and no facade or
	// command sets them: only the paper harness and tests do, on
	// core.Config, and neither journals a run.
	harnessOnly
	// unboundContents: whether the setting is given is fingerprinted,
	// what it holds is not.
	unboundContents
)

// setting classifies one Config field. perturb moves it off the base
// configuration (resumeBase); it is nil only where no value can be
// compared.
type setting struct {
	class   settingClass
	reason  string
	perturb func(*Config)
}

// runSettings classifies every field of Config and of its Matcher
// (core.Config), keyed by path. pf is a trained pre-filter.
func runSettings(pf *cascade.Prefilter) map[string]setting {
	return map[string]setting{
		"Blocker": {class: boundByPairKeys, perturb: func(c *Config) {
			c.Blocker = &blocking.TokenBlocker{Attr: "beer_name", MinShared: 1}
		}},
		"Matcher.BatchSize":      {class: fingerprinted, perturb: func(c *Config) { c.Matcher.BatchSize = 2 }},
		"Matcher.NumDemos":       {class: fingerprinted, perturb: func(c *Config) { c.Matcher.NumDemos = 4 }},
		"Matcher.Batching":       {class: fingerprinted, perturb: func(c *Config) { c.Matcher.Batching = core.SimilarityBatching }},
		"Matcher.Selection":      {class: fingerprinted, perturb: func(c *Config) { c.Matcher.Selection = core.TopKBatch }},
		"Matcher.Model":          {class: fingerprinted, perturb: func(c *Config) { c.Matcher.Model = llm.GPT35Turbo0613 }},
		"Matcher.Seed":           {class: fingerprinted, perturb: func(c *Config) { c.Matcher.Seed = 2 }},
		"Matcher.CheapModel":     {class: fingerprinted, perturb: func(c *Config) { c.Matcher.CheapModel = llm.GPT35Turbo0613 }},
		"Matcher.EscalateMargin": {class: fingerprinted, perturb: func(c *Config) { c.Matcher.EscalateMargin = 0.5 }},
		"StreamWindow":           {class: fingerprinted, perturb: func(c *Config) { c.StreamWindow = 8 }},
		"Prefilter":              {class: fingerprinted, perturb: func(c *Config) { c.Prefilter = pf }},
		"Shard":                  {class: fingerprinted, perturb: func(c *Config) { c.Shard = shard.Spec{Index: 0, Count: 2} }},

		"Matcher.Parallelism": {class: neutral, reason: "batches share no state, so any number in flight answers and bills as one at a time",
			perturb: func(c *Config) { c.Matcher.Parallelism = 4 }},
		"Matcher.Degrade": {class: neutral, reason: "acts only on a batch an open breaker refuses, which is journaled as a placeholder that a resume asks again",
			perturb: func(c *Config) { c.Matcher.Degrade = core.DegradeUnknown }},
		"InFlightWindows": {class: neutral, reason: "the ordered committer makes every output identical for every K",
			perturb: func(c *Config) { c.InFlightWindows = 4 }},
		"MaxCandidates": {class: neutral, reason: "stops a run whose blocking passes the cap and changes no answer of a run it lets through",
			perturb: func(c *Config) { c.MaxCandidates = 1 << 20 }},
		"Progress": {class: neutral, reason: "observes the run",
			perturb: func(c *Config) { c.Progress = func(Progress) {} }},
		"OnPair": {class: neutral, reason: "observes each committed prediction",
			perturb: func(c *Config) { c.OnPair = func(entity.Pair, entity.Label) {} }},
		"Journal": {class: neutral, reason: "holds the fingerprint and the answers; it decides neither"},

		"Matcher.Extractor":            {class: harnessOnly, perturb: func(c *Config) { c.Matcher.Extractor = feature.NewJAC() }},
		"Matcher.Distance":             {class: harnessOnly, perturb: func(c *Config) { c.Matcher.Distance = feature.CosineDistance }},
		"Matcher.CoverPercentile":      {class: harnessOnly, perturb: func(c *Config) { c.Matcher.CoverPercentile = 0.2 }},
		"Matcher.ClusterEpsPercentile": {class: harnessOnly, perturb: func(c *Config) { c.Matcher.ClusterEpsPercentile = 0.2 }},
		"Matcher.ClusterMinPts":        {class: harnessOnly, perturb: func(c *Config) { c.Matcher.ClusterMinPts = 5 }},
		"Matcher.DistanceSampleCap":    {class: harnessOnly, perturb: func(c *Config) { c.Matcher.DistanceSampleCap = 64 }},
		"Matcher.TaskDescription":      {class: harnessOnly, perturb: func(c *Config) { c.Matcher.TaskDescription = "Do these match?" }},

		// ROADMAP 19(c): SharedPool stamps whether a pool is given, not
		// which pairs it holds.
		"Pool": {class: unboundContents, perturb: func(c *Config) { c.Pool = c.Pool[1:] }},
	}
}

// resumeBase is the run both settings tests start from: 60 × 60 Beer
// in windows of 16, batches of 4, on a two-tier cascade so the
// escalation margin counts.
func resumeBase(j *runstore.Journal) Config {
	return Config{
		Blocker:      &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
		Matcher:      core.Config{BatchSize: 4, Seed: 1, Model: llm.GPT4, CheapModel: llm.GPT35Turbo0301},
		StreamWindow: 16,
		Journal:      j,
	}
}

// settingsFixture loads the Beer dataset and trains the pre-filter the
// Prefilter row sets.
func settingsFixture(t *testing.T) (*entity.Dataset, *cascade.Prefilter) {
	t.Helper()
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := cascade.Train(entity.SplitPairs(d.Pairs).Train, cascade.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d, pf
}

// settingPaths lists the classifiable fields of typ by path; the
// Matcher field is walked into.
func settingPaths(typ reflect.Type, prefix string) []string {
	var out []string
	for i := range typ.NumField() {
		f := typ.Field(i)
		if f.Type == reflect.TypeOf(core.Config{}) {
			out = append(out, settingPaths(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// TestSettingsClassified gives every Config and core.Config field one
// class (ROADMAP 19(a)) and holds each class to what it claims against
// runMeta: a fingerprinted setting, moved, makes the fingerprint
// incompatible; any other leaves it compatible, so binding one fails
// here until it is reclassified. TestResumeRejectsMismatchedRun resumes
// a journal under each fingerprinted and pair-key-bound setting.
func TestSettingsClassified(t *testing.T) {
	d, pf := settingsFixture(t)
	settings := runSettings(pf)
	paths := settingPaths(reflect.TypeOf(Config{}), "")
	for _, p := range paths {
		if _, ok := settings[p]; !ok {
			t.Errorf("%s has no class: add a row to runSettings", p)
		}
	}
	for p := range settings {
		if !slices.Contains(paths, p) {
			t.Errorf("runSettings classifies %s, which is no field: drop the row", p)
		}
	}

	j, err := runstore.OpenJournal(context.Background(), filepath.Join(t.TempDir(), "run"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ta, tb := d.TableA[:60], d.TableB[:60]
	client := llm.NewSimulated(llm.BuildOracle(d.Pairs), 1)
	meta := func(c Config) runstore.RunMeta {
		return runMeta(c, core.NewFromConfig(client, c.Matcher), ta, tb)
	}
	base := resumeBase(j)
	for _, p := range paths {
		s, ok := settings[p]
		if !ok {
			continue
		}
		if s.class == neutral && s.reason == "" {
			t.Errorf("%s: a neutral setting needs its reason", p)
		}
		if s.perturb == nil {
			continue
		}
		from := base
		if s.class == unboundContents {
			from.Pool = d.Pairs[:20]
			if meta(base).Compatible(meta(from)) {
				t.Errorf("%s: giving one is not fingerprinted", p)
			}
		}
		moved := from
		s.perturb(&moved)
		if reflect.DeepEqual(from, moved) {
			t.Errorf("%s: perturb moves nothing", p)
		}
		bound := !meta(from).Compatible(meta(moved))
		if want := s.class == fingerprinted; bound != want {
			t.Errorf("%s: moving it makes the fingerprint incompatible = %v, want %v for its class", p, bound, want)
		}
	}
}
