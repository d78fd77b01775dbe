package llm

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestAnthropicCompatibleHappyPath(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/messages" {
			t.Errorf("path = %s", r.URL.Path)
		}
		if got := r.Header.Get("x-api-key"); got != "sk-ant-test" {
			t.Errorf("api key header = %q", got)
		}
		if got := r.Header.Get("anthropic-version"); got == "" {
			t.Error("missing anthropic-version header")
		}
		var req anthropicRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode request: %v", err)
		}
		if req.MaxTokens != 1024 {
			t.Errorf("default max tokens = %d", req.MaxTokens)
		}
		if len(req.Messages) != 1 || req.Messages[0].Role != "user" {
			t.Errorf("messages = %+v", req.Messages)
		}
		w.Write([]byte(`{
			"content":[{"type":"text","text":"Question 1: "},{"type":"text","text":"Yes"}],
			"usage":{"input_tokens":33,"output_tokens":6}
		}`))
	}))
	defer srv.Close()
	c := &AnthropicCompatible{BaseURL: srv.URL, APIKey: "sk-ant-test"}
	resp, err := c.Complete(context.Background(), Request{Model: "claude-x", Prompt: "are these the same?", Temperature: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completion != "Question 1: Yes" {
		t.Errorf("Completion = %q (text blocks should concatenate)", resp.Completion)
	}
	if resp.InputTokens != 33 || resp.OutputTokens != 6 {
		t.Errorf("usage = %d/%d", resp.InputTokens, resp.OutputTokens)
	}
}

func TestAnthropicCompatibleError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(400)
		w.Write([]byte(`{"error":{"type":"invalid_request_error","message":"bad model"}}`))
	}))
	defer srv.Close()
	c := &AnthropicCompatible{BaseURL: srv.URL}
	if _, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"}); err == nil || !contains(err.Error(), "bad model") {
		t.Errorf("err = %v", err)
	}
}

func TestAnthropicCompatibleEmptyContent(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"content":[],"usage":{"input_tokens":1,"output_tokens":0}}`))
	}))
	defer srv.Close()
	c := &AnthropicCompatible{BaseURL: srv.URL}
	if _, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"}); err == nil {
		t.Error("empty content should error")
	}
}

func TestAnthropicCompatibleUsageFallback(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"content":[{"type":"text","text":"Question 1: No"}]}`))
	}))
	defer srv.Close()
	c := &AnthropicCompatible{BaseURL: srv.URL}
	resp, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "some words here"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.InputTokens == 0 || resp.OutputTokens == 0 {
		t.Errorf("usage fallback missing: %d/%d", resp.InputTokens, resp.OutputTokens)
	}
}

// TestAnthropicCompatibleCustomMaxTokens: a request's MaxTokens is the
// max_tokens the body carries.
func TestAnthropicCompatibleCustomMaxTokens(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req anthropicRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.MaxTokens != 77 {
			t.Errorf("max tokens = %d, want 77", req.MaxTokens)
		}
		w.Write([]byte(`{"content":[{"type":"text","text":"ok"}]}`))
	}))
	defer srv.Close()
	c := &AnthropicCompatible{BaseURL: srv.URL}
	if _, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p", MaxTokens: 77}); err != nil {
		t.Fatal(err)
	}
}
