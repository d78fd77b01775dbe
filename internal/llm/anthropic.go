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
	// HTTPClient defaults to a client with a 60s timeout.
	HTTPClient *http.Client
}

// anthropicVersion is the anthropic-version header every request
// sends: the Messages API version the wire format here follows.
const anthropicVersion = "2023-06-01"

// maxTokens is the completion cap every Messages request carries: the
// API requires one, and a batch's "Question i: Yes/No" lines stay far
// below it.
const maxTokens = 1024

type anthropicRequest struct {
	Model       string             `json:"model"`
	MaxTokens   int                `json:"max_tokens"`
	Temperature float64            `json:"temperature"`
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
	header := http.Header{}
	if c.APIKey != "" {
		header.Set("x-api-key", c.APIKey)
	}
	header.Set("anthropic-version", anthropicVersion)
	return roundTrip(ctx, c.HTTPClient, c.BaseURL+"/v1/messages", header, anthropicRequest{
		Model:       req.Model,
		MaxTokens:   maxTokens,
		Temperature: Temperature,
		Messages:    []anthropicMessage{{Role: "user", Content: req.Prompt}},
	}, &anthropicResponse{}, req.Prompt)
}
