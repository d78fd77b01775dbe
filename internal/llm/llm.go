// Package llm defines the LLM client abstraction BATCHER talks to, a model
// registry with the pricing and context limits of the paper's models, an
// OpenAI-compatible HTTP client for live endpoints, and — the default in
// this offline reproduction — a deterministic simulated LLM whose error
// model encodes the mechanisms the paper identifies (demonstration
// relevance, intra-batch contrast, copy-answer bias, pair ambiguity). See
// docs/ARCHITECTURE.md, "Offline substitutions", for the rationale.
package llm

import (
	"context"
	"errors"
	"fmt"

	"batcher/internal/cost"
)

// Request is a single completion request. Every field below participates
// in CacheKey: two requests that could elicit different completions must
// never share a cache entry.
type Request struct {
	// Model is a registry name, e.g. "gpt-3.5-turbo-0301".
	Model string
	// System is an optional system prompt sent ahead of the user prompt.
	// Live clients map it to their wire format's system slot; the
	// simulator ignores it.
	System string
	// Prompt is the full prompt text.
	Prompt string
	// Temperature controls sampling noise. The paper sets 0.01.
	Temperature float64
	// MaxTokens caps the completion length; 0 uses the client's default.
	MaxTokens int
	// Tier routes the request inside a Tiered client (see NewTiered).
	// Non-tiered clients ignore it. It participates in CacheKey because a
	// cascade rewrites Model alongside it and the two must stay coupled in
	// cache identity.
	Tier Tier
}

// Response is a completion plus the token usage the API billed.
type Response struct {
	// Completion is the generated text.
	Completion string
	// InputTokens and OutputTokens are the billed token counts.
	InputTokens  int
	OutputTokens int
	// CacheHit reports that the completion was served from a local cache:
	// the token counts are zeroed and no API call was made, so cost
	// accounting must not record a billed call for it.
	CacheHit bool
}

// Client is anything that can answer completion requests: the simulator,
// a live HTTP endpoint, or a middleware wrapper. Implementations must
// honour ctx: return promptly with ctx.Err() once it is cancelled or its
// deadline passes, and must be safe for concurrent use.
type Client interface {
	Complete(ctx context.Context, req Request) (Response, error)
}

// ErrContextLength is returned when a prompt exceeds the model's context
// window (the "input length overrun" failure mode Section IV-C warns
// topk-question selection can hit).
var ErrContextLength = errors.New("llm: prompt exceeds model context window")

// ErrUnknownModel is returned for a model name missing from the registry.
var ErrUnknownModel = errors.New("llm: unknown model")

// Model describes a registry entry: identity, billing, limits, and the
// behavioural profile the simulator uses.
type Model struct {
	// Name is the API model identifier.
	Name string
	// Pricing is the per-1K-token price.
	Pricing cost.Pricing
	// ContextTokens is the maximum prompt size.
	ContextTokens int
	// SupportsBatch reports whether the model reliably answers
	// multi-question prompts. The paper found Llama2-chat-70B does not.
	SupportsBatch bool
	// Profile drives the simulated error model; ignored by live clients.
	Profile Profile
}

// Profile holds the simulator's behavioural constants for one model.
// All weights act on a logistic score: higher score, higher probability of
// answering a question correctly.
type Profile struct {
	// Skill is the base logit of answering correctly on an unambiguous
	// pair with no demonstrations.
	Skill float64
	// DemoWeight scales the benefit of a nearby demonstration.
	DemoWeight float64
	// ContrastWeight scales the benefit of a diverse batch (the
	// mechanism behind the paper's Figure 6 precision gain).
	ContrastWeight float64
	// NegContrastWeight is extra contrast benefit on true non-matches:
	// seeing varied pairs side by side helps the model reject
	// near-duplicates, raising precision specifically.
	NegContrastWeight float64
	// AmbiguityWeight scales the penalty for pairs whose attribute
	// similarities sit in the ambiguous mid band.
	AmbiguityWeight float64
	// CopyBias is the probability that a near-homogeneous batch collapses
	// to one answer for all questions (the similarity-batching failure
	// mode of Section VI-C).
	CopyBias float64
	// MatchBias shifts the score on true matches relative to true
	// non-matches; negative values produce models that over-predict
	// "match" (losing precision), positive ones are conservative.
	MatchBias float64
	// TempNoise scales how much sampling temperature degrades the score.
	TempNoise float64
}

// registry holds the built-in models.
var registry = map[string]Model{
	GPT35Turbo0301: {
		Name:          GPT35Turbo0301,
		Pricing:       cost.Pricing{InputPer1K: 0.001, OutputPer1K: 0.002},
		ContextTokens: 4096,
		SupportsBatch: true,
		Profile: Profile{
			Skill: 3.1, DemoWeight: 0.85, ContrastWeight: 0.32,
			NegContrastWeight: 0.9, AmbiguityWeight: 1.35, CopyBias: 0.38,
			MatchBias: -0.25, TempNoise: 1.0,
		},
	},
	GPT35Turbo0613: {
		Name:          GPT35Turbo0613,
		Pricing:       cost.Pricing{InputPer1K: 0.001, OutputPer1K: 0.002},
		ContextTokens: 4096,
		SupportsBatch: true,
		// The 0613 snapshot regressed on ER per Table VI: noticeably lower
		// base skill and a stronger tendency to call ambiguous pairs
		// matches, costing precision on AB/DS/AG.
		Profile: Profile{
			Skill: 2.7, DemoWeight: 1.0, ContrastWeight: 0.4,
			NegContrastWeight: 0.5, AmbiguityWeight: 1.8, CopyBias: 0.42,
			MatchBias: -0.85, TempNoise: 1.1,
		},
	},
	GPT4: {
		Name:          GPT4,
		Pricing:       cost.Pricing{InputPer1K: 0.01, OutputPer1K: 0.03},
		ContextTokens: 128000,
		SupportsBatch: true,
		Profile: Profile{
			Skill: 3.65, DemoWeight: 1.2, ContrastWeight: 0.5,
			NegContrastWeight: 0.7, AmbiguityWeight: 1.0, CopyBias: 0.25,
			MatchBias: -0.1, TempNoise: 0.8,
		},
	},
	Llama2Chat70B: {
		Name:          Llama2Chat70B,
		Pricing:       cost.Pricing{}, // open weights: no API charge
		ContextTokens: 4096,
		SupportsBatch: false, // fails to produce output under batching
		Profile: Profile{
			Skill: 2.0, DemoWeight: 0.8, ContrastWeight: 0.4,
			NegContrastWeight: 0.5, AmbiguityWeight: 2.2, CopyBias: 0.6,
			MatchBias: -0.5, TempNoise: 1.5,
		},
	},
}

// Model name constants for the models evaluated in Section VI-F.
const (
	GPT35Turbo0301 = "gpt-3.5-turbo-0301"
	GPT35Turbo0613 = "gpt-3.5-turbo-0613"
	GPT4           = "gpt-4-1106-preview"
	Llama2Chat70B  = "llama-2-chat-70b"
)

// DefaultModel is the paper's default underlying LLM.
const DefaultModel = GPT35Turbo0301

// Lookup returns the registry entry for name.
func Lookup(name string) (Model, error) {
	m, ok := registry[name]
	if !ok {
		return Model{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return m, nil
}
