package batcher

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"batcher/internal/pipeline"
)

// TestOptionIsClosed: an Option is not a func over Config, so a caller
// outside the package cannot write one that sets a field the With*
// functions leave alone.
func TestOptionIsClosed(t *testing.T) {
	typ := reflect.TypeFor[Option]()
	if typ.Kind() == reflect.Func {
		t.Fatal("Option is a func type: any caller can write a func(*Config) that sets every Config field")
	}
	for i := range typ.NumField() {
		if f := typ.Field(i); f.IsExported() {
			t.Errorf("Option has exported field %s", f.Name)
		}
	}
}

// facadeOptions is every With* function with a value that differs from
// the facade default, and the one Config field it must set.
var facadeOptions = map[string]struct {
	opt   Option
	field string
}{
	"WithBatchSize":      {WithBatchSize(3), "BatchSize"},
	"WithNumDemos":       {WithNumDemos(5), "NumDemos"},
	"WithBatching":       {WithBatching(RandomBatching), "Batching"},
	"WithSelection":      {WithSelection(FixedSelection), "Selection"},
	"WithModel":          {WithModel(GPT4), "Model"},
	"WithSeed":           {WithSeed(7), "Seed"},
	"WithParallelism":    {WithParallelism(4), "Parallelism"},
	"WithCheapModel":     {WithCheapModel(GPT35Turbo0613), "CheapModel"},
	"WithEscalateMargin": {WithEscalateMargin(0.25), "EscalateMargin"},
	"WithDegrade":        {WithDegrade(DegradeUnknown), "Degrade"},
}

// harnessOnly are the Config fields no option sets. A journaled run
// does not fingerprint them, so only the paper harness and tests, which
// journal nothing, set them, on core.Config.
var harnessOnly = []string{
	"Extractor", "Distance", "CoverPercentile", "ClusterEpsPercentile",
	"ClusterMinPts", "DistanceSampleCap", "TaskDescription",
}

// fieldNames lists the fields of struct v's type in order.
func fieldNames(v any) []string {
	typ := reflect.TypeOf(v)
	names := make([]string, typ.NumField())
	for i := range names {
		names[i] = typ.Field(i).Name
	}
	return names
}

// changedFields names the fields of two structs of one type whose
// values differ.
func changedFields(a, b any) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := range va.NumField() {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// optionFuncs lists the package's exported functions that return an
// Option, read from its source.
func optionFuncs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			for _, r := range fn.Type.Results.List {
				if id, ok := r.Type.(*ast.Ident); ok && id.Name == "Option" {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

// TestFacadeSettingsClassified: each With* function sets exactly its
// one Config field, the ten reach ten distinct fields, and the fields
// they leave alone are exactly the harness-only ones. Every
// PipelineConfig field lands on one pipeline.Config field, each of
// which internal/pipeline's TestSettingsClassified classifies.
func TestFacadeSettingsClassified(t *testing.T) {
	funcs := optionFuncs(t)
	slices.Sort(funcs)
	var listed []string
	for name := range facadeOptions {
		listed = append(listed, name)
	}
	slices.Sort(listed)
	if !slices.Equal(funcs, listed) {
		t.Fatalf("functions returning Option = %v, classified = %v: classify every option here", funcs, listed)
	}

	base := resolve(nil)
	reached := map[string]bool{}
	for name, o := range facadeOptions {
		got := changedFields(base, resolve([]Option{o.opt}))
		if !slices.Equal(got, []string{o.field}) {
			t.Errorf("%s changes %v, want [%s]", name, got, o.field)
		}
		if reached[o.field] {
			t.Errorf("%s sets %s, which another option sets too", name, o.field)
		}
		reached[o.field] = true
	}
	if len(reached) != 10 {
		t.Errorf("options reach %d Config fields, want 10", len(reached))
	}
	for _, f := range fieldNames(Config{}) {
		if harness := slices.Contains(harnessOnly, f); reached[f] == harness {
			t.Errorf("Config.%s: set by an option = %v, harness-only = %v; want exactly one", f, reached[f], harness)
		}
	}

	// Each PipelineConfig field, moved off its zero value, and the
	// pipeline.Config field it must land on.
	moves := map[string]struct {
		set    func(*PipelineConfig)
		target string
	}{
		"BlockAttr":       {func(c *PipelineConfig) { c.BlockAttr = "title" }, "Blocker"},
		"MinSharedTokens": {func(c *PipelineConfig) { c.MinSharedTokens = 3 }, "Blocker"},
		"UseMinHash":      {func(c *PipelineConfig) { c.UseMinHash = true }, "Blocker"},
		"MaxCandidates":   {func(c *PipelineConfig) { c.MaxCandidates = 10 }, "MaxCandidates"},
		"Matcher":         {func(c *PipelineConfig) { c.Matcher = []Option{WithSeed(7)} }, "Matcher"},
		"Pool":            {func(c *PipelineConfig) { c.Pool = []Pair{{}} }, "Pool"},
		"StreamWindow":    {func(c *PipelineConfig) { c.StreamWindow = 16 }, "StreamWindow"},
		"InFlightWindows": {func(c *PipelineConfig) { c.InFlightWindows = 2 }, "InFlightWindows"},
		"Progress":        {func(c *PipelineConfig) { c.Progress = func(PipelineProgress) {} }, "Progress"},
		"OnPair":          {func(c *PipelineConfig) { c.OnPair = func(Pair, Label) {} }, "OnPair"},
		"Prefilter":       {func(c *PipelineConfig) { c.Prefilter = &CascadePrefilter{} }, "Prefilter"},
		"Journal":         {func(c *PipelineConfig) { c.Journal = &RunJournal{} }, "Journal"},
		"Shard":           {func(c *PipelineConfig) { c.Shard = ShardSpec{Index: 1, Count: 2} }, "Shard"},
	}
	pbase := PipelineConfig{}.resolve()
	fields := fieldNames(PipelineConfig{})
	for _, f := range fields {
		m, ok := moves[f]
		if !ok {
			t.Errorf("PipelineConfig.%s maps to no pipeline.Config field", f)
			continue
		}
		if !slices.Contains(fieldNames(pipeline.Config{}), m.target) {
			t.Errorf("PipelineConfig.%s maps to pipeline.Config.%s, which does not exist", f, m.target)
			continue
		}
		var cfg PipelineConfig
		m.set(&cfg)
		if got := changedFields(pbase, cfg.resolve()); !slices.Equal(got, []string{m.target}) {
			t.Errorf("PipelineConfig.%s changes pipeline.Config %v, want [%s]", f, got, m.target)
		}
	}
	for f := range moves {
		if !slices.Contains(fields, f) {
			t.Errorf("PipelineConfig.%s is no field: drop its move", f)
		}
	}
}
