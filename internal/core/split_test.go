package core

import (
	"context"
	"strings"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/llm"
	"batcher/internal/prompt"
	"batcher/internal/tokens"
)

// tinyContextClient rejects prompts above a token budget with
// ErrContextLength and otherwise answers everything "No". It drives the
// trim-then-split fallback paths of callWithTrim.
type tinyContextClient struct {
	budget int
	calls  int
}

func (c *tinyContextClient) Complete(_ context.Context, req llm.Request) (llm.Response, error) {
	c.calls++
	if tokens.Count(req.Prompt) > c.budget {
		return llm.Response{}, llm.ErrContextLength
	}
	parsed, err := prompt.Parse(req.Prompt)
	if err != nil {
		return llm.Response{Completion: "?"}, nil
	}
	labels := make([]entity.Label, len(parsed.Questions))
	for i := range labels {
		labels[i] = entity.NonMatch
	}
	return llm.Response{
		Completion:   prompt.FormatAnswers(labels),
		InputTokens:  tokens.Count(req.Prompt),
		OutputTokens: len(labels),
	}, nil
}

func TestCallWithTrimSplitsBatches(t *testing.T) {
	questions, pool := testWorkload(t, "Beer", 16)
	// Budget below a full batch prompt but above a half batch: forces
	// demo trimming, then batch splitting, and finally succeeds.
	probe := prompt.Build(prompt.DefaultTaskDescription, nil, questions[:8])
	client := &tinyContextClient{budget: tokens.Count(probe.Text)/2 + 40}
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
	if client.calls <= len(res.Batches) {
		t.Errorf("calls = %d, batches = %d; split paths not exercised", client.calls, len(res.Batches))
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
