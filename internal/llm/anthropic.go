package llm

import (
	"context"
	"net/http"
)

// AnthropicCompatible is a Client for endpoints speaking the Anthropic
// Messages wire format. Like OpenAICompatible it exists so the library
// runs against live services; tests exercise it with httptest.
type AnthropicCompatible struct {
	// BaseURL is the API root, e.g. "https://api.anthropic.com".
	BaseURL string
	// APIKey is sent in the x-api-key header when non-empty.
	APIKey string
	// Version is the anthropic-version header (defaults to "2023-06-01").
	Version string
	// MaxTokens caps the completion length (defaults to 1024).
	MaxTokens int
	// HTTPClient defaults to a client with a 60s timeout.
	HTTPClient *http.Client
}

type anthropicRequest struct {
	Model       string             `json:"model"`
	MaxTokens   int                `json:"max_tokens"`
	Temperature float64            `json:"temperature"`
	System      string             `json:"system,omitempty"`
	Messages    []anthropicMessage `json:"messages"`
}

type anthropicMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

type anthropicResponse struct {
	Content []struct {
		Type string `json:"type"`
		Text string `json:"text"`
	} `json:"content"`
	Usage struct {
		InputTokens  int `json:"input_tokens"`
		OutputTokens int `json:"output_tokens"`
	} `json:"usage"`
	Error *wireError `json:"error"`
}

func (r *anthropicResponse) apiError() *wireError { return r.Error }

// answer concatenates the text blocks; a reply without text is no answer.
func (r *anthropicResponse) answer() (string, int, int, string) {
	var text string
	for _, block := range r.Content {
		if block.Type == "text" {
			text += block.Text
		}
	}
	if text == "" {
		return "", 0, 0, "empty content"
	}
	return text, r.Usage.InputTokens, r.Usage.OutputTokens, ""
}

// Complete implements Client. The HTTP request is bound to ctx, so
// cancellation aborts an in-flight call immediately.
func (c *AnthropicCompatible) Complete(ctx context.Context, req Request) (Response, error) {
	// The per-request cap wins over the client default: it is part of the
	// request identity (see CacheKey) and must match what is sent.
	maxTokens := req.MaxTokens
	if maxTokens <= 0 {
		maxTokens = c.MaxTokens
	}
	if maxTokens <= 0 {
		maxTokens = 1024
	}
	header := http.Header{}
	if c.APIKey != "" {
		header.Set("x-api-key", c.APIKey)
	}
	version := c.Version
	if version == "" {
		version = "2023-06-01"
	}
	header.Set("anthropic-version", version)
	return roundTrip(ctx, c.HTTPClient, c.BaseURL+"/v1/messages", header, anthropicRequest{
		Model:       req.Model,
		MaxTokens:   maxTokens,
		Temperature: req.Temperature,
		System:      req.System,
		Messages:    []anthropicMessage{{Role: "user", Content: req.Prompt}},
	}, &anthropicResponse{}, req.Prompt)
}
