package batcher

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// record builds a record from parallel attribute/value slices.
func record(id string, attrs, values []string) Record {
	return Record{ID: id, Attrs: attrs, Values: values}
}

func loadSmall(t *testing.T) (questions, pool []Pair) {
	t.Helper()
	d, err := LoadBenchmark("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := SplitPairs(d.Pairs)
	return s.Test[:40], s.Train
}

func TestPublicAPIEndToEnd(t *testing.T) {
	questions, pool := loadSmall(t)
	client := NewSimulatedClient(append(append([]Pair(nil), questions...), pool...), 1)
	m := New(client,
		WithBatching(DiversityBatching),
		WithSelection(CoveringSelection),
		WithSeed(1))
	res, err := m.Match(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	c := Score(questions, res.Pred)
	if c.F1() < 60 {
		t.Errorf("public API F1 = %.1f", c.F1())
	}
	if res.Ledger.Total() <= 0 {
		t.Error("no cost recorded")
	}
}

func TestOptionsApply(t *testing.T) {
	client := NewSimulatedClient(nil, 1)
	m := New(client,
		WithBatchSize(4),
		WithNumDemos(6),
		WithModel(GPT4),
		WithCoverPercentile(0.2),
		WithJaccardFeatures(),
	)
	cfg := m.Config()
	if cfg.BatchSize != 4 || cfg.NumDemos != 6 {
		t.Errorf("sizes = %d/%d", cfg.BatchSize, cfg.NumDemos)
	}
	if cfg.Model != GPT4 {
		t.Errorf("model = %q", cfg.Model)
	}
	if cfg.CoverPercentile != 0.2 {
		t.Errorf("percentile = %v", cfg.CoverPercentile)
	}
	if cfg.Extractor.Name() != "JAC" {
		t.Errorf("extractor = %q", cfg.Extractor.Name())
	}
}

// TestOptionsApplyAndCompose covers the engine knobs the facade options
// set on top of the basics, and that options compose in order.
func TestOptionsApplyAndCompose(t *testing.T) {
	client := NewSimulatedClient(nil, 1)
	cfg := New(client,
		WithParallelism(3),
		WithSeed(42),
		WithBatching(SimilarityBatching),
		WithSelection(TopKBatch),
		WithCheapModel(GPT35Turbo0301),
		WithEscalateMargin(0.25),
		WithDegrade(DegradeCheapOnly),
	).Config()
	if cfg.Parallelism != 3 || cfg.Seed != 42 {
		t.Errorf("parallelism/seed = %d/%d", cfg.Parallelism, cfg.Seed)
	}
	// An explicit strategy overrides the facade default.
	if cfg.Batching != SimilarityBatching || cfg.Selection != TopKBatch {
		t.Errorf("batching/selection = %v/%v", cfg.Batching, cfg.Selection)
	}
	if cfg.CheapModel != GPT35Turbo0301 || cfg.EscalateMargin != 0.25 || cfg.Degrade != DegradeCheapOnly {
		t.Errorf("cascade = %q/%v/%v", cfg.CheapModel, cfg.EscalateMargin, cfg.Degrade)
	}
	// Options compose in order: a later option wins.
	if got := New(client, WithBatchSize(2), WithBatchSize(5)).Config().BatchSize; got != 5 {
		t.Errorf("later option lost: %d", got)
	}
}

// TestOptionDefaultsMatchConfigDefaults: with no options, New and
// RunPipeline both resolve to the facade default — the paper's best
// design point, diversity batching with covering selection — and to
// core's paper defaults for every other field.
func TestOptionDefaultsMatchConfigDefaults(t *testing.T) {
	client := NewSimulatedClient(nil, 1)
	want := NewWithConfig(client, Config{Batching: DiversityBatching, Selection: CoveringSelection}).Config()
	for name, got := range map[string]Config{
		"New":         New(client).Config(),
		"RunPipeline": NewWithConfig(client, resolve(PipelineConfig{}.Matcher)).Config(),
	} {
		if got.BatchSize != want.BatchSize || got.NumDemos != want.NumDemos ||
			got.Batching != want.Batching || got.Selection != want.Selection ||
			got.CoverPercentile != want.CoverPercentile ||
			got.ClusterEpsPercentile != want.ClusterEpsPercentile ||
			got.ClusterMinPts != want.ClusterMinPts ||
			got.Model != want.Model ||
			got.TaskDescription != want.TaskDescription ||
			got.DistanceSampleCap != want.DistanceSampleCap ||
			got.Parallelism != want.Parallelism ||
			got.CheapModel != want.CheapModel || got.Degrade != want.Degrade {
			t.Errorf("%s defaults diverge:\n got %+v\nwant %+v", name, got, want)
		}
		if got.Extractor.Name() != want.Extractor.Name() {
			t.Errorf("%s default extractor = %q, want %q", name, got.Extractor.Name(), want.Extractor.Name())
		}
	}
	if want.Batching != DiversityBatching || want.Selection != CoveringSelection || want.BatchSize != 8 {
		t.Errorf("facade default = %v/%v/%d, want diversity/cover/8", want.Batching, want.Selection, want.BatchSize)
	}
}

func TestExtractorOptions(t *testing.T) {
	client := NewSimulatedClient(nil, 1)
	for _, tc := range []struct {
		opt  Option
		name string
	}{
		{WithLRFeatures(), "LR"},
		{WithJaccardFeatures(), "JAC"},
		{WithSemanticFeatures(), "SEM"},
	} {
		m := New(client, tc.opt)
		if got := m.Config().Extractor.Name(); got != tc.name {
			t.Errorf("extractor = %q, want %q", got, tc.name)
		}
	}
}

func TestLoadBenchmarkUnknown(t *testing.T) {
	if _, err := LoadBenchmark("nope", 1); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestBlockTables(t *testing.T) {
	ta := []Record{record("a1", []string{"title"}, []string{"hoppy amber ale"})}
	tb := []Record{
		record("b1", []string{"title"}, []string{"hoppy amber lager"}),
		record("b2", []string{"title"}, []string{"unrelated stout"}),
	}
	pairs := BlockTables(ta, tb, "title", 2)
	if len(pairs) != 1 || pairs[0].B.ID != "b1" {
		t.Errorf("BlockTables = %v", pairs)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.csv")
	recs := []Record{
		record("r1", []string{"title", "price"}, []string{"widget, deluxe", "9.99"}),
		record("r2", []string{"title", "price"}, []string{"gadget \"pro\"", ""}),
	}
	if err := WriteCSVTable(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0].ID != "r1" {
		t.Errorf("id = %q", got[0].ID)
	}
	v, _ := got[0].Get("title")
	if v != "widget, deluxe" {
		t.Errorf("comma value = %q", v)
	}
	v, _ = got[1].Get("title")
	if v != `gadget "pro"` {
		t.Errorf("quoted value = %q", v)
	}
}

func TestParseCSVTableNoID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.csv")
	if err := os.WriteFile(path, []byte("title,price\nwidget,9.99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadCSVTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !strings.HasPrefix(recs[0].ID, path+"#") {
		t.Errorf("recs = %v", recs)
	}
	if len(recs[0].Attrs) != 2 {
		t.Errorf("attrs = %v", recs[0].Attrs)
	}
}

func TestParseCSVTableEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSVTable(path); err == nil {
		t.Error("empty csv should fail on header read")
	}
}

func TestReadCSVTableMissing(t *testing.T) {
	if _, err := ReadCSVTable(filepath.Join(os.TempDir(), "definitely-missing-xyz.csv")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestNewWithConfig(t *testing.T) {
	m := NewWithConfig(NewSimulatedClient(nil, 1), Config{BatchSize: 2})
	if m.Config().BatchSize != 2 {
		t.Errorf("cfg = %+v", m.Config())
	}
}

func TestMatchStreamYieldsIncrementally(t *testing.T) {
	questions, pool := loadSmall(t)
	client := NewSimulatedClient(append(append([]Pair(nil), questions...), pool...), 1)
	m := New(client, WithSeed(1))
	stream, err := m.MatchStream(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.Batches()) < 2 {
		t.Fatalf("only %d batches", len(stream.Batches()))
	}
	seen := 0
	var ledger = stream.DemosLabeled()
	for br := range stream.All() {
		if br.Index != seen {
			t.Errorf("batch %d arrived at position %d", br.Index, seen)
		}
		seen++
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(stream.Batches()) {
		t.Errorf("yielded %d of %d batches", seen, len(stream.Batches()))
	}
	if ledger <= 0 {
		t.Error("no demos annotated")
	}
}

func TestMatchContextCancelReturnsBatchError(t *testing.T) {
	questions, pool := loadSmall(t)
	client := NewSimulatedClient(append(append([]Pair(nil), questions...), pool...), 1)
	m := New(client, WithSeed(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.Match(ctx, questions, pool)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// Both live clients the facade builds reach their endpoint with their
// own path and key header and read the completion and usage back.
func TestLiveClientConstructors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/chat/completions":
			if got := r.Header.Get("Authorization"); got != "Bearer sk-test" {
				t.Errorf("OpenAI auth = %q", got)
			}
			w.Write([]byte(`{"choices":[{"message":{"content":"Question 1: Yes"}}],"usage":{"prompt_tokens":42,"completion_tokens":5}}`))
		case "/v1/messages":
			if got := r.Header.Get("x-api-key"); got != "sk-test" {
				t.Errorf("Anthropic key = %q", got)
			}
			w.Write([]byte(`{"content":[{"type":"text","text":"Question 1: Yes"}],"usage":{"input_tokens":42,"output_tokens":5}}`))
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	for name, c := range map[string]Client{
		"openai":    NewOpenAIClient(srv.URL, "sk-test"),
		"anthropic": NewAnthropicClient(srv.URL, "sk-test"),
	} {
		resp, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "same?"})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Completion != "Question 1: Yes" || resp.InputTokens != 42 || resp.OutputTokens != 5 {
			t.Errorf("%s: response %+v", name, resp)
		}
	}
}
