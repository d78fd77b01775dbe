package pipeline

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"batcher/internal/blocking"
	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/feature"
	"batcher/internal/llm"
)

const extractorGoldenPath = "testdata/extractor_golden.json"

// extractorPhase pins what a windowed run with a non-default extractor
// decides and bills. Dollars are float bits, as in goldenPhase.
type extractorPhase struct {
	PredSHA256    string `json:"pred_sha256"`
	Calls         int    `json:"calls"`
	InputTokens   int    `json:"input_tokens"`
	OutputTokens  int    `json:"output_tokens"`
	APIDollarBits string `json:"api_dollar_bits"`
	LabeledPairs  int    `json:"labeled_pairs"`
	Candidates    int    `json:"candidates"`
	Windows       int    `json:"windows"`
}

type extractorGolden struct {
	Arch    string                    `json:"arch"`
	Entries map[string]extractorPhase `json:"entries"`
}

// TestExtractorPipelineGolden holds windowed runs with the JAC and SEM
// extractors to a recording: the per-pair predictions (the OnPair
// sequence), the bill and the labelled pairs of pipeline.Run over 64-pair
// windows, one and two windows in flight. Diversity batching and
// covering selection read every feature vector, so a vector that moves
// by a bit shows up here.
func TestExtractorPipelineGolden(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := d.TableA[:200], d.TableB[:200]
	oracle := llm.BuildOracle(d.Pairs)

	extractors := []func() feature.Extractor{
		func() feature.Extractor { return feature.NewJAC() },
		func() feature.Extractor { return feature.NewSEM() },
	}
	got := extractorGolden{Arch: runtime.GOARCH, Entries: map[string]extractorPhase{}}
	for _, newEx := range extractors {
		for _, k := range []int{1, 2} {
			name := fmt.Sprintf("%s/w64_k%d", newEx().Name(), k)
			t.Run(name, func(t *testing.T) {
				cfg := Config{
					Blocker: &blocking.TokenBlocker{Attr: "beer_name", MinShared: 2},
					Matcher: core.Config{
						BatchSize: 4, Seed: 1, Extractor: newEx(),
						Batching: core.DiversityBatching, Selection: core.CoveringSelection,
					},
					StreamWindow:    64,
					InFlightWindows: k,
				}
				c := captureRun(t, cfg, llm.NewSimulated(oracle, 1), ta, tb)
				l := c.rep.Result.Ledger
				got.Entries[name] = extractorPhase{
					PredSHA256:    sha256Lines(c.pairSeq),
					Calls:         l.Calls(),
					InputTokens:   l.InputTokens(),
					OutputTokens:  l.OutputTokens(),
					APIDollarBits: fmt.Sprintf("%016x", math.Float64bits(l.API())),
					LabeledPairs:  l.LabeledPairs(),
					Candidates:    c.rep.Candidates,
					Windows:       c.rep.Windows,
				}
			})
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(extractorGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(extractorGoldenPath)
	if err != nil {
		t.Fatalf("%v (record with go test -run TestExtractorPipelineGolden -update)", err)
	}
	var want extractorGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", extractorGoldenPath, err)
	}
	if want.Arch != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s", want.Arch, runtime.GOARCH)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Errorf("%d entries run, golden has %d", len(got.Entries), len(want.Entries))
	}
	for name, w := range want.Entries {
		if g, ok := got.Entries[name]; !ok {
			t.Errorf("%s: in the golden file but not run", name)
		} else if g != w {
			t.Errorf("%s:\n got  %+v\n want %+v", name, g, w)
		}
	}
}
