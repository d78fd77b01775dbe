package llm

import (
	"context"
	"fmt"

	"batcher/internal/tokens"
)

// Dry is a Client that calls no model. It refuses what the simulator
// refuses, an unknown model or a prompt over the model's context window,
// and answers every other request with an empty completion billed at the
// prompt's token count. Running the engine over it prices a run: every
// prompt is built, trimmed and split exactly as a real run would, and
// nothing is answered.
type Dry struct{}

// Complete implements Client.
func (Dry) Complete(_ context.Context, req Request) (Response, error) {
	_, inTokens, err := admit(req)
	if err != nil {
		return Response{}, err
	}
	return Response{InputTokens: inTokens}, nil
}

// admit is the check Simulated and Dry run before answering: it looks
// req's model up and counts its prompt against the model's context
// window, returning the model and the prompt's token count.
func admit(req Request) (Model, int, error) {
	model, err := Lookup(req.Model)
	if err != nil {
		return Model{}, 0, err
	}
	inTokens := tokens.Count(req.Prompt)
	if inTokens > model.ContextTokens {
		return Model{}, 0, fmt.Errorf("%w: %d > %d (%s)", ErrContextLength, inTokens, model.ContextTokens, model.Name)
	}
	return model, inTokens, nil
}
