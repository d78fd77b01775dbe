package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/prompt"
	"batcher/internal/tokens"
)

// tinyContextClient rejects prompts above a token budget with
// ErrContextLength and answers the rest, every question "No", or with
// reply when set. After answer answered calls (0: no limit) it refuses
// the rest the way an open breaker does. It drives ask's trim-then-split fallback and keeps the
// backend's side of the bill: the calls it answered and their tokens.
type tinyContextClient struct {
	budget int
	reply  string
	answer int

	mu        sync.Mutex
	calls     int
	billed    int
	billedIn  int
	billedOut int
}

func (c *tinyContextClient) Complete(_ context.Context, req llm.Request) (llm.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	in := tokens.Count(req.Prompt)
	if in > c.budget {
		return llm.Response{}, llm.ErrContextLength
	}
	if c.answer > 0 && c.billed == c.answer {
		return llm.Response{}, llm.ErrCircuitOpen
	}
	completion := c.reply
	if completion == "" {
		parsed, err := prompt.Parse(req.Prompt)
		if err != nil {
			return llm.Response{}, err
		}
		labels := make([]entity.Label, len(parsed.Questions))
		for i := range labels {
			labels[i] = entity.NonMatch
		}
		completion = formatAnswers(labels)
	}
	out := tokens.Count(completion)
	c.billed++
	c.billedIn += in
	c.billedOut += out
	return llm.Response{Completion: completion, InputTokens: in, OutputTokens: out}, nil
}

// formatAnswers renders labels in the canonical text reply format.
func formatAnswers(labels []entity.Label) string {
	var b strings.Builder
	for i, l := range labels {
		if l == entity.Match {
			fmt.Fprintf(&b, "Question %d: Yes\n", i+1)
		} else {
			fmt.Fprintf(&b, "Question %d: No\n", i+1)
		}
	}
	return b.String()
}

// splitBudget is a context budget below a full batch prompt but above a
// half batch: it forces demonstration trimming, then batch splitting,
// and finally succeeds.
func splitBudget(questions []entity.Pair) int {
	probe := prompt.Build(prompt.DefaultTaskDescription, nil, questions[:8])
	return tokens.Count(probe.Text)/2 + 40
}

func TestCallWithTrimSplitsBatches(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 16)
	client := &tinyContextClient{budget: splitBudget(questions)}
	f := NewFromConfig(client, Config{Selection: FixedSelection, Seed: 1})
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatalf("Resolve under tiny context: %v", err)
	}
	answered := 0
	for _, p := range res.Pred {
		if p != entity.Unknown {
			answered++
		}
	}
	if answered != len(questions) {
		t.Errorf("answered %d/%d after splitting", answered, len(questions))
	}
	if res.TrimmedDemos == 0 {
		t.Error("expected trimmed demos before splitting")
	}
	// Splitting means strictly more calls than batches.
	nb := len(plannedBatches(t, f, questions, pool))
	if client.calls <= nb {
		t.Errorf("calls = %d, batches = %d; split paths not exercised", client.calls, nb)
	}
}

func TestCallWithTrimSingleQuestionTooLong(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 4)
	client := &tinyContextClient{budget: 5} // nothing fits
	f := NewFromConfig(client, Config{Selection: FixedSelection, Seed: 1})
	_, err := f.Resolve(context.Background(), questions, pool)
	if err == nil || !strings.Contains(err.Error(), "context") {
		t.Errorf("err = %v, want context-length failure", err)
	}
}

// A split batch is billed one ledger call per half the backend answered:
// the ledger's calls and tokens equal the backend's own count, whatever
// the parallelism.
func TestSplitBatchBillsEveryCall(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 16)
	for _, par := range []int{1, 4} {
		client := &tinyContextClient{budget: splitBudget(questions)}
		f := NewFromConfig(client, Config{Selection: FixedSelection, Seed: 1, Parallelism: par})
		res, err := f.Resolve(context.Background(), questions, pool)
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		nb := len(plannedBatches(t, f, questions, pool))
		if client.billed <= nb {
			t.Fatalf("par %d: backend answered %d calls for %d batches; nothing split", par, client.billed, nb)
		}
		if res.Ledger.Calls() != client.billed || res.Ledger.InputTokens() != client.billedIn ||
			res.Ledger.OutputTokens() != client.billedOut || res.PromptTokens != client.billedIn {
			t.Errorf("par %d: ledger %d calls / %d in / %d out (prompt tokens %d), backend billed %d / %d / %d",
				par, res.Ledger.Calls(), res.Ledger.InputTokens(), res.Ledger.OutputTokens(), res.PromptTokens,
				client.billed, client.billedIn, client.billedOut)
		}
		for i, p := range res.Pred {
			if p != entity.NonMatch {
				t.Fatalf("par %d: pred[%d] = %v, want the backend's No", par, i, p)
			}
		}
	}
}

// A split batch whose halves answer nothing parseable is all Unknown, so
// a cascade whose cheap tier splits that way escalates every batch.
func TestSplitBatchUnparseableIsUnknown(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 16)
	client := &tinyContextClient{budget: splitBudget(questions), reply: "I cannot tell."}
	f := NewFromConfig(client, Config{Selection: FixedSelection, Seed: 1})
	res, err := f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	nb := len(plannedBatches(t, f, questions, pool))
	if client.billed <= nb {
		t.Fatalf("backend answered %d calls for %d batches; nothing split", client.billed, nb)
	}
	for i, p := range res.Pred {
		if p != entity.Unknown {
			t.Fatalf("pred[%d] = %v, want Unknown", i, p)
		}
	}

	cheap := &tinyContextClient{budget: splitBudget(questions), reply: "I cannot tell."}
	expensive := &tinyContextClient{budget: 1 << 30}
	cfg := cascadeConfig(1)
	cfg.Selection = FixedSelection
	f = NewFromConfig(llm.NewTiered(cheap, expensive), cfg)
	res, err = f.Resolve(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	nb = len(plannedBatches(t, f, questions, pool))
	if cheap.billed <= nb {
		t.Fatalf("cheap tier answered %d calls for %d batches; nothing split", cheap.billed, nb)
	}
	if expensive.billed != nb {
		t.Errorf("expensive tier answered %d calls, want one escalation per batch (%d)", expensive.billed, nb)
	}
	if got, want := res.Ledger.Calls(), cheap.billed+expensive.billed; got != want {
		t.Errorf("ledger calls = %d, backends billed %d", got, want)
	}
	for i, p := range res.Pred {
		if p != entity.NonMatch {
			t.Fatalf("cascade pred[%d] = %v, want the expensive tier's No", i, p)
		}
	}
}

// A split whose second half is refused by an open breaker degrades the
// batch, and the first half's billed call stays on the degraded batch.
func TestSplitBatchDegradeKeepsFirstHalf(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 16)
	client := &tinyContextClient{budget: splitBudget(questions), answer: 1}
	f := NewFromConfig(client, Config{Selection: FixedSelection, Seed: 1, Degrade: DegradeUnknown})
	p, err := f.Prepare(context.Background(), questions, pool)
	if err != nil {
		t.Fatal(err)
	}
	var got []BatchResult
	if err := p.Run(context.Background(), func(br BatchResult) { got = append(got, br) }); err != nil {
		t.Fatal(err)
	}
	if client.billed != 1 {
		t.Fatalf("backend answered %d calls, want 1", client.billed)
	}
	first := got[0]
	if !first.Degraded {
		t.Fatal("batch 0 not degraded after its second half was refused")
	}
	if first.Ledger.Calls() != 1 || first.Ledger.InputTokens() != client.billedIn || first.Ledger.OutputTokens() != client.billedOut {
		t.Errorf("degraded batch carries %d calls / %d in / %d out, backend billed 1 / %d / %d",
			first.Ledger.Calls(), first.Ledger.InputTokens(), first.Ledger.OutputTokens(), client.billedIn, client.billedOut)
	}
	for i, l := range first.Pred {
		if l != entity.Unknown {
			t.Errorf("degraded pred[%d] = %v, want Unknown", i, l)
		}
	}
	for _, br := range got[1:] {
		if !br.Degraded || br.Ledger.Calls() != 0 {
			t.Errorf("batch %d: degraded %v with %d calls, want degraded with none", br.Index, br.Degraded, br.Ledger.Calls())
		}
	}
}
