package cost

import (
	"math"
	"strings"
	"testing"
)

func samplePlan() Plan {
	return Plan{
		Questions:               1000,
		BatchSize:               8,
		TokensPerPair:           90,
		DescriptionTokens:       40,
		DemosPerPrompt:          8,
		OutputTokensPerQuestion: 6,
		LabeledDemos:            50,
		Pricing:                 Pricing{InputPer1K: 0.001, OutputPer1K: 0.002},
	}
}

func TestPlanPrompts(t *testing.T) {
	p := samplePlan()
	if got := p.Prompts(); got != 125 {
		t.Errorf("Prompts = %d, want 125", got)
	}
	p.Questions = 1001
	if got := p.Prompts(); got != 126 {
		t.Errorf("Prompts with remainder = %d, want 126", got)
	}
	p.BatchSize = 0
	if got := p.Prompts(); got != 1001 {
		t.Errorf("standard prompting Prompts = %d", got)
	}
}

func TestPlanTokenArithmetic(t *testing.T) {
	p := samplePlan()
	// Per prompt: 40 + (8 demos + 8 questions) * 90 = 1480 tokens.
	want := 125 * 1480
	if got := p.InputTokens(); got != want {
		t.Errorf("InputTokens = %d, want %d", got, want)
	}
	if got := p.OutputTokens(); got != 6000 {
		t.Errorf("OutputTokens = %d", got)
	}
}

// TestPlanInputTokensAgreeWithPrompts pins InputTokens to the prompt
// count Prompts reports: BatchSize <= 0 is standard prompting (one
// question per prompt, like BatchSize 1), and a partial last batch
// carries only the questions left over.
func TestPlanInputTokensAgreeWithPrompts(t *testing.T) {
	cases := []struct {
		name      string
		questions int
		batchSize int
		want      int
	}{
		{"batch size 1", 1001, 1, 1001 * (40 + 8*90 + 90)},
		{"batch size 0 is standard prompting", 1001, 0, 1001 * (40 + 8*90 + 90)},
		{"negative batch size is standard prompting", 1001, -3, 1001 * (40 + 8*90 + 90)},
		{"remainder bills only its questions", 1001, 8, 126*(40+8*90) + 1001*90},
		{"exact division", 1000, 8, 125 * (40 + (8+8)*90)},
		{"batch larger than the campaign", 5, 8, 40 + (8+5)*90},
	}
	for _, c := range cases {
		p := samplePlan()
		p.Questions, p.BatchSize = c.questions, c.batchSize
		if got := p.InputTokens(); got != c.want {
			t.Errorf("%s: InputTokens = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPlanDollars(t *testing.T) {
	p := samplePlan()
	wantAPI := float64(p.InputTokens())/1000*0.001 + float64(p.OutputTokens())/1000*0.002
	if math.Abs(p.APIDollars()-wantAPI) > 1e-12 {
		t.Errorf("APIDollars = %v, want %v", p.APIDollars(), wantAPI)
	}
	if math.Abs(p.LabelDollars()-0.4) > 1e-12 {
		t.Errorf("LabelDollars = %v, want $0.40", p.LabelDollars())
	}
	if math.Abs(p.TotalDollars()-(wantAPI+0.4)) > 1e-12 {
		t.Errorf("TotalDollars = %v", p.TotalDollars())
	}
}

func TestPlanPaperIntroExample(t *testing.T) {
	// The paper's intro: 500,000 predictions, 90 tokens/pair, 3 demos +
	// 1 question per prompt, GPT-4 at $0.01/1K input -> $1,800.
	p := Plan{
		Questions:      500_000,
		BatchSize:      1,
		TokensPerPair:  90,
		DemosPerPrompt: 3,
		Pricing:        Pricing{InputPer1K: 0.01},
	}
	if math.Abs(p.APIDollars()-1800) > 1e-6 {
		t.Errorf("paper intro projection = $%.2f, want $1800", p.APIDollars())
	}
}

func TestPlanBatchingSavesMoney(t *testing.T) {
	p := samplePlan()
	costs := p.CompareBatchSizes([]int{1, 8})
	if costs[8] >= costs[1] {
		t.Errorf("batch 8 ($%.2f) should undercut standard ($%.2f)", costs[8], costs[1])
	}
	// The API-side saving carries the paper's 4x-7x claim; totals also
	// include the fixed labeling charge, which batching cannot reduce.
	std, batch := p, p
	std.BatchSize = 1
	batch.BatchSize = 8
	ratio := std.APIDollars() / batch.APIDollars()
	if ratio < 3 || ratio > 9 {
		t.Errorf("projected API saving %.1fx outside the paper's band", ratio)
	}
}

func TestPlanString(t *testing.T) {
	s := samplePlan().String()
	for _, want := range []string{"1000 questions", "125 prompts", "total=$"} {
		if !strings.Contains(s, want) {
			t.Errorf("String = %q missing %q", s, want)
		}
	}
}
