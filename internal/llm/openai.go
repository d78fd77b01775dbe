package llm

import (
	"context"
	"net/http"
)

// OpenAICompatible is a Client for chat-completions endpoints speaking the
// OpenAI wire format. It exists so the library is usable against live
// services; the offline reproduction never dials out (tests exercise it
// against net/http/httptest servers).
type OpenAICompatible struct {
	// BaseURL is the API root, e.g. "https://api.openai.com/v1".
	BaseURL string
	// APIKey is sent as a bearer token when non-empty.
	APIKey string
	// HTTPClient defaults to a client with a 60s timeout.
	HTTPClient *http.Client
}

// chatRequest is the OpenAI chat-completions request body.
type chatRequest struct {
	Model       string        `json:"model"`
	Messages    []chatMessage `json:"messages"`
	Temperature float64       `json:"temperature"`
}

type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

// chatResponse is the subset of the response body we consume.
type chatResponse struct {
	Choices []struct {
		Message chatMessage `json:"message"`
	} `json:"choices"`
	Usage struct {
		PromptTokens     int `json:"prompt_tokens"`
		CompletionTokens int `json:"completion_tokens"`
	} `json:"usage"`
	Error *wireError `json:"error"`
}

func (r *chatResponse) apiError() *wireError { return r.Error }

// answer takes the first choice; an empty content is an answer.
func (r *chatResponse) answer() (string, int, int, string) {
	if len(r.Choices) == 0 {
		return "", 0, 0, "empty choices"
	}
	return r.Choices[0].Message.Content, r.Usage.PromptTokens, r.Usage.CompletionTokens, ""
}

// Complete implements Client. The HTTP request is bound to ctx, so
// cancellation aborts an in-flight call immediately.
func (c *OpenAICompatible) Complete(ctx context.Context, req Request) (Response, error) {
	header := http.Header{}
	if c.APIKey != "" {
		header.Set("Authorization", "Bearer "+c.APIKey)
	}
	return roundTrip(ctx, c.HTTPClient, c.BaseURL+"/chat/completions", header, chatRequest{
		Model:       req.Model,
		Messages:    []chatMessage{{Role: "user", Content: req.Prompt}},
		Temperature: Temperature,
	}, &chatResponse{}, req.Prompt)
}
