package llm

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// wireCapture is what an httptest server saw of one POST.
type wireCapture struct {
	method, path string
	header       http.Header
	body         string
}

// captureWire sends req through the client newClient builds against a
// test server and returns the request the server received. reply is the
// body the server answers with.
func captureWire(t *testing.T, reply string, newClient func(baseURL string) Client, req Request) wireCapture {
	t.Helper()
	var got wireCapture
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("read body: %v", err)
		}
		got = wireCapture{method: r.Method, path: r.URL.Path, header: r.Header.Clone(), body: string(body)}
		w.Write([]byte(reply))
	}))
	defer srv.Close()
	if _, err := newClient(srv.URL).Complete(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	return got
}

// wirePrompt needs JSON escaping: a quote, a newline and HTML characters.
const wirePrompt = "Question 1: \"a\" <b> & c\nYes or No?"

func checkWire(t *testing.T, got, want wireCapture) {
	t.Helper()
	if got.method != want.method || got.path != want.path {
		t.Errorf("%s %s, want %s %s", got.method, got.path, want.method, want.path)
	}
	if got.body != want.body {
		t.Errorf("body\n got %s\nwant %s", got.body, want.body)
	}
	if !reflect.DeepEqual(got.header, want.header) {
		t.Errorf("header\n got %v\nwant %v", got.header, want.header)
	}
}

// TestOpenAIWirePinned pins the exact chat-completions POST: no system
// message, no max_tokens, the paper's temperature.
func TestOpenAIWirePinned(t *testing.T) {
	got := captureWire(t, `{"choices":[{"message":{"role":"assistant","content":"Question 1: Yes"}}],"usage":{"prompt_tokens":9,"completion_tokens":4}}`,
		func(u string) Client { return &OpenAICompatible{BaseURL: u, APIKey: "sk-test"} },
		Request{Model: GPT35Turbo0301, Prompt: wirePrompt, Tier: TierExpensive})
	checkWire(t, got, wireCapture{
		method: http.MethodPost,
		path:   "/chat/completions",
		header: http.Header{
			"Accept-Encoding": {"gzip"},
			"Authorization":   {"Bearer sk-test"},
			"Content-Length":  {"143"},
			"Content-Type":    {"application/json"},
			"User-Agent":      {"Go-http-client/1.1"},
		},
		body: `{"model":"gpt-3.5-turbo-0301","messages":[{"role":"user","content":"Question 1: \"a\" \u003cb\u003e \u0026 c\nYes or No?"}],"temperature":0.01}`,
	})
}

// TestAnthropicWirePinned pins the exact Messages POST: max_tokens 1024,
// the paper's temperature, no system field.
func TestAnthropicWirePinned(t *testing.T) {
	got := captureWire(t, `{"content":[{"type":"text","text":"Question 1: Yes"}],"usage":{"input_tokens":9,"output_tokens":4}}`,
		func(u string) Client { return &AnthropicCompatible{BaseURL: u, APIKey: "sk-ant-test"} },
		Request{Model: "claude-x", Prompt: wirePrompt, Tier: TierCheap})
	checkWire(t, got, wireCapture{
		method: http.MethodPost,
		path:   "/v1/messages",
		header: http.Header{
			"Accept-Encoding":   {"gzip"},
			"Anthropic-Version": {"2023-06-01"},
			"Content-Length":    {"151"},
			"Content-Type":      {"application/json"},
			"User-Agent":        {"Go-http-client/1.1"},
			"X-Api-Key":         {"sk-ant-test"},
		},
		body: `{"model":"claude-x","max_tokens":1024,"temperature":0.01,"messages":[{"role":"user","content":"Question 1: \"a\" \u003cb\u003e \u0026 c\nYes or No?"}]}`,
	})
}
