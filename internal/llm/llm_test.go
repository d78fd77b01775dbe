package llm

import (
	"context"
	"errors"
	"strings"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/prompt"
	"batcher/internal/tokens"
)

func rec(id string, kv ...string) entity.Record {
	var attrs, vals []string
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, kv[i])
		vals = append(vals, kv[i+1])
	}
	return entity.NewRecord(id, attrs, vals)
}

// clearPair returns an unambiguous pair: identical records for match,
// totally different for non-match.
func clearPair(i int, match bool) entity.Pair {
	t := entity.NonMatch
	a := rec("a", "title", "alpha beta gamma product "+itoa(i), "brand", "acme", "price", "10")
	b := rec("b", "title", "zzz completely unrelated item "+itoa(i+1000), "brand", "other", "price", "9999")
	if match {
		t = entity.Match
		b = rec("b", "title", "alpha beta gamma product "+itoa(i), "brand", "acme", "price", "10")
	}
	return entity.Pair{A: a, B: b, Truth: t}
}

func itoa(i int) string {
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	var s []byte
	for i > 0 {
		s = append([]byte{digits[i%10]}, s...)
		i /= 10
	}
	return string(s)
}

func TestLookup(t *testing.T) {
	m, err := Lookup(GPT4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pricing.InputPer1K != 0.01 {
		t.Errorf("GPT-4 input price = %v, want paper's $0.01/1K", m.Pricing.InputPer1K)
	}
	if _, err := Lookup("no-such-model"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model error = %v", err)
	}
}

func TestGPT4TenTimesGPT35(t *testing.T) {
	g4, err := Lookup(GPT4)
	if err != nil {
		t.Fatal(err)
	}
	g35, err := Lookup(GPT35Turbo0301)
	if err != nil {
		t.Fatal(err)
	}
	if g4.Pricing.InputPer1K != 10*g35.Pricing.InputPer1K {
		t.Errorf("GPT-4 should be 10x GPT-3.5: %v vs %v", g4.Pricing.InputPer1K, g35.Pricing.InputPer1K)
	}
}

func buildBatch(t *testing.T, demos []prompt.Demo, qs []entity.Pair) Request {
	t.Helper()
	p := prompt.Build(prompt.DefaultTaskDescription, demos, qs)
	return Request{Model: DefaultModel, Prompt: p.Text}
}

func oracleFor(pairs ...entity.Pair) MapOracle { return BuildOracle(pairs) }

func TestSimulatedAnswersClearPairs(t *testing.T) {
	// Unambiguous pairs with relevant demos must be answered almost
	// perfectly across many seeds.
	var qs []entity.Pair
	for i := 0; i < 8; i++ {
		qs = append(qs, clearPair(i, i%2 == 0))
	}
	demos := []prompt.Demo{
		{Pair: clearPair(100, true), Label: entity.Match},
		{Pair: clearPair(101, false), Label: entity.NonMatch},
	}
	correct, total := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		sim := NewSimulated(oracleFor(qs...), seed)
		req := buildBatch(t, demos, qs)
		resp, err := sim.Complete(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		labels := prompt.ParseAnswers(resp.Completion, len(qs))
		for i, l := range labels {
			total++
			if l == qs[i].Truth {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Errorf("accuracy on clear pairs = %.3f, want >= 0.9", acc)
	}
}

func TestSimulatedDeterministicPerSeed(t *testing.T) {
	qs := []entity.Pair{clearPair(0, true), clearPair(1, false)}
	sim := NewSimulated(oracleFor(qs...), 7)
	req := buildBatch(t, nil, qs)
	a, err := sim.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completion != b.Completion {
		t.Error("simulator not deterministic for identical request+seed")
	}
}

func TestSimulatedSeedChangesOutcomes(t *testing.T) {
	// Across many ambiguous questions, different seeds must produce at
	// least one differing completion (otherwise σ across runs would be 0).
	var qs []entity.Pair
	for i := 0; i < 8; i++ {
		// Borderline pairs: share some tokens.
		a := rec("a", "title", "apple iphone 12 mini "+itoa(i), "brand", "apple")
		b := rec("b", "title", "apple iphone 13 mini "+itoa(i), "brand", "apple")
		qs = append(qs, entity.Pair{A: a, B: b, Truth: entity.NonMatch})
	}
	req := buildBatch(t, nil, qs)
	first, err := NewSimulated(oracleFor(qs...), 1).Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for seed := int64(2); seed < 12; seed++ {
		resp, err := NewSimulated(oracleFor(qs...), seed).Complete(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Completion != first.Completion {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("10 seeds produced identical completions on ambiguous batch")
	}
}

func TestSimulatedContextLimit(t *testing.T) {
	long := strings.Repeat("word ", 10000)
	sim := NewSimulated(nil, 1)
	_, err := sim.Complete(context.Background(), Request{Model: DefaultModel, Prompt: long})
	if !errors.Is(err, ErrContextLength) {
		t.Errorf("err = %v, want ErrContextLength", err)
	}
}

func TestSimulatedUnknownModel(t *testing.T) {
	sim := NewSimulated(nil, 1)
	_, err := sim.Complete(context.Background(), Request{Model: "gpt-99", Prompt: "hi"})
	if !errors.Is(err, ErrUnknownModel) {
		t.Errorf("err = %v", err)
	}
}

// Dry refuses exactly what the simulator refuses, with the same error,
// and bills an accepted prompt at its token count with no completion.
func TestDryAdmitsLikeSimulated(t *testing.T) {
	ok := buildBatch(t, nil, []entity.Pair{clearPair(0, true), clearPair(1, false)})
	for _, req := range []Request{
		ok,
		{Model: DefaultModel, Prompt: strings.Repeat("word ", 10000)},
		{Model: "gpt-99", Prompt: "hi"},
	} {
		sim, simErr := NewSimulated(nil, 1).Complete(context.Background(), req)
		dry, dryErr := Dry{}.Complete(context.Background(), req)
		if (simErr == nil) != (dryErr == nil) || (simErr != nil && simErr.Error() != dryErr.Error()) {
			t.Errorf("model %q: dry err %v, simulated err %v", req.Model, dryErr, simErr)
			continue
		}
		if simErr != nil {
			continue
		}
		if dry.InputTokens != sim.InputTokens || dry.InputTokens != tokens.Count(req.Prompt) {
			t.Errorf("dry input tokens = %d, simulated %d, prompt %d", dry.InputTokens, sim.InputTokens, tokens.Count(req.Prompt))
		}
		if dry.Completion != "" || dry.OutputTokens != 0 {
			t.Errorf("dry answered %q (%d output tokens), want nothing", dry.Completion, dry.OutputTokens)
		}
	}
}

func TestSimulatedLlamaFailsBatch(t *testing.T) {
	qs := []entity.Pair{clearPair(0, true), clearPair(1, false)}
	sim := NewSimulated(oracleFor(qs...), 1)
	p := prompt.Build(prompt.DefaultTaskDescription, nil, qs)
	resp, err := sim.Complete(context.Background(), Request{Model: Llama2Chat70B, Prompt: p.Text})
	if err != nil {
		t.Fatal(err)
	}
	labels := prompt.ParseAnswers(resp.Completion, 2)
	for _, l := range labels {
		if l != entity.Unknown {
			t.Errorf("Llama2 batch answer parsed to %v, want unusable output", l)
		}
	}
}

func TestSimulatedLlamaHandlesSingleQuestion(t *testing.T) {
	q := clearPair(0, true)
	sim := NewSimulated(oracleFor(q), 1)
	p := prompt.Build(prompt.DefaultTaskDescription, nil, []entity.Pair{q})
	resp, err := sim.Complete(context.Background(), Request{Model: Llama2Chat70B, Prompt: p.Text})
	if err != nil {
		t.Fatal(err)
	}
	labels := prompt.ParseAnswers(resp.Completion, 1)
	if labels[0] == entity.Unknown {
		t.Error("Llama2 standard prompting should produce parseable output")
	}
}

func TestSimulatedUnparseablePromptGetsRefusal(t *testing.T) {
	sim := NewSimulated(nil, 1)
	resp, err := sim.Complete(context.Background(), Request{Model: DefaultModel, Prompt: "gibberish with no questions"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completion == "" || resp.OutputTokens == 0 {
		t.Error("refusal should still bill output tokens")
	}
}

func TestSimulatedTokensBilled(t *testing.T) {
	qs := []entity.Pair{clearPair(0, true)}
	sim := NewSimulated(oracleFor(qs...), 1)
	req := buildBatch(t, nil, qs)
	resp, err := sim.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.InputTokens <= 0 || resp.OutputTokens <= 0 {
		t.Errorf("token usage = %d/%d", resp.InputTokens, resp.OutputTokens)
	}
}

func TestSimulatedRelevantDemosHelp(t *testing.T) {
	// Ambiguous questions; compare accuracy with a demo right next to
	// each question versus no demos at all, across many seeds.
	var qs []entity.Pair
	for i := 0; i < 8; i++ {
		a := rec("a", "title", "canon eos camera kit "+itoa(i), "brand", "canon")
		b := rec("b", "title", "canon eos camera set "+itoa(i), "brand", "canon inc")
		qs = append(qs, entity.Pair{A: a, B: b, Truth: entity.Match})
	}
	var nearDemos []prompt.Demo
	for i := 0; i < 4; i++ {
		a := rec("a", "title", "canon eos camera kit x"+itoa(i), "brand", "canon")
		b := rec("b", "title", "canon eos camera set x"+itoa(i), "brand", "canon inc")
		nearDemos = append(nearDemos, prompt.Demo{Pair: entity.Pair{A: a, B: b}, Label: entity.Match})
	}
	accWith, accWithout := 0, 0
	runs := 40
	for seed := int64(0); seed < int64(runs); seed++ {
		sim := NewSimulated(oracleFor(qs...), seed)
		for _, demos := range [][]prompt.Demo{nearDemos, nil} {
			p := prompt.Build(prompt.DefaultTaskDescription, demos, qs)
			resp, err := sim.Complete(context.Background(), Request{Model: DefaultModel, Prompt: p.Text})
			if err != nil {
				t.Fatal(err)
			}
			labels := prompt.ParseAnswers(resp.Completion, len(qs))
			n := 0
			for i, l := range labels {
				if l == qs[i].Truth {
					n++
				}
			}
			if demos != nil {
				accWith += n
			} else {
				accWithout += n
			}
		}
	}
	if accWith <= accWithout {
		t.Errorf("relevant demos should improve accuracy: with=%d without=%d", accWith, accWithout)
	}
}

func TestOracleKeyIgnoresIDs(t *testing.T) {
	p1 := entity.Pair{A: rec("id1", "t", "x"), B: rec("id2", "t", "y")}
	p2 := entity.Pair{A: rec("zzz", "t", "x"), B: rec("qqq", "t", "y")}
	if OracleKey(p1) != OracleKey(p2) {
		t.Error("OracleKey should depend on content only")
	}
}

func TestBuildOracleSkipsUnknown(t *testing.T) {
	pairs := []entity.Pair{
		{A: rec("a", "t", "1"), B: rec("b", "t", "1"), Truth: entity.Match},
		{A: rec("c", "t", "2"), B: rec("d", "t", "3"), Truth: entity.Unknown},
	}
	o := BuildOracle(pairs)
	if len(o) != 1 {
		t.Errorf("oracle size = %d, want 1", len(o))
	}
}
