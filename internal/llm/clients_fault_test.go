package llm

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// faultClients builds both live clients against the same base URL so
// every fault-mapping case runs through each wire format.
func faultClients(url string) map[string]Client {
	return map[string]Client{
		"openai":    &OpenAICompatible{BaseURL: url},
		"anthropic": &AnthropicCompatible{BaseURL: url},
	}
}

func TestLiveClientsMapFaults(t *testing.T) {
	cases := []struct {
		name       string
		handler    http.HandlerFunc
		wantClass  error
		wantStatus int
		wantRA     time.Duration
		wantMsg    string
	}{
		{
			name: "429 with Retry-After",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", "2")
				w.WriteHeader(429)
				w.Write([]byte(`{"error":{"message":"rate limit","type":"rate_limit_error"}}`))
			},
			wantClass:  ErrThrottled,
			wantStatus: 429,
			wantRA:     2 * time.Second,
			wantMsg:    "rate limit",
		},
		{
			name: "500",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(500)
				w.Write([]byte(`oops`))
			},
			wantClass:  ErrOverloaded,
			wantStatus: 500,
		},
		{
			name: "503",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(503)
				w.Write([]byte(`{"error":{"message":"overloaded","type":"overloaded_error"}}`))
			},
			wantClass:  ErrOverloaded,
			wantStatus: 503,
			wantMsg:    "overloaded",
		},
		{
			name: "400 bad request",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(400)
				w.Write([]byte(`{"error":{"message":"bad model","type":"invalid_request_error"}}`))
			},
			wantClass:  ErrPermanent,
			wantStatus: 400,
			wantMsg:    "bad model",
		},
		{
			name: "malformed JSON at 200",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte(`{not json`))
			},
			wantClass:  ErrTransport,
			wantStatus: 200,
		},
		{
			name: "truncated body",
			handler: func(w http.ResponseWriter, r *http.Request) {
				// Promise more bytes than we send, then hang up: the
				// client sees an unexpected EOF mid-body.
				w.Header().Set("Content-Length", "1000")
				w.Write([]byte(`{"choices":[`))
			},
			wantClass: ErrTransport,
		},
	}
	for _, tc := range cases {
		srv := httptest.NewServer(tc.handler)
		for name, c := range faultClients(srv.URL) {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				_, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"})
				if err == nil {
					t.Fatal("want error")
				}
				if !errors.Is(err, tc.wantClass) {
					t.Fatalf("err = %v, want class %v", err, tc.wantClass)
				}
				var apiErr *APIError
				if !errors.As(err, &apiErr) {
					t.Fatalf("err = %T, want *APIError", err)
				}
				if tc.wantStatus != 0 && apiErr.Status != tc.wantStatus {
					t.Errorf("status = %d, want %d", apiErr.Status, tc.wantStatus)
				}
				if apiErr.RetryAfter != tc.wantRA {
					t.Errorf("retry-after = %v, want %v", apiErr.RetryAfter, tc.wantRA)
				}
				if tc.wantMsg != "" && !strings.Contains(err.Error(), tc.wantMsg) {
					t.Errorf("error text %q should carry the api message %q", err, tc.wantMsg)
				}
			})
		}
		srv.Close()
	}
}

func TestLiveClientsMapDialFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // nothing is listening anymore
	for name, c := range faultClients(srv.URL) {
		t.Run(name, func(t *testing.T) {
			_, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"})
			if !errors.Is(err, ErrTransport) {
				t.Errorf("dial failure = %v, want ErrTransport", err)
			}
		})
	}
}

// TestRetryingShortCircuitsPermanentHTTP is the ISSUE's regression
// test: an HTTP 400 must make exactly one attempt against the backend.
func TestRetryingShortCircuitsPermanentHTTP(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(400)
		w.Write([]byte(`{"error":{"message":"bad model","type":"invalid_request_error"}}`))
	}))
	defer srv.Close()
	for name, c := range faultClients(srv.URL) {
		t.Run(name, func(t *testing.T) {
			hits.Store(0)
			r := newRetrying(c, 5, time.Millisecond)
			r.sleep = func(time.Duration) {}
			_, err := r.Complete(context.Background(), Request{Model: "m", Prompt: "p"})
			if !errors.Is(err, ErrPermanent) {
				t.Fatalf("err = %v, want ErrPermanent", err)
			}
			if got := hits.Load(); got != 1 {
				t.Errorf("backend saw %d requests, want exactly 1", got)
			}
		})
	}
}

// TestRetryingHonorsRetryAfter is the ISSUE's second regression: a 429
// carrying Retry-After: 2 must wait at least 2s before the retry
// (observed through the stubbed clock).
func TestRetryingHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(429)
			w.Write([]byte(`{"error":{"message":"rate limit","type":"rate_limit_error"}}`))
			return
		}
		w.Write([]byte(`{
			"choices":[{"message":{"role":"assistant","content":"Question 1: Yes"}}],
			"content":[{"type":"text","text":"Question 1: Yes"}],
			"usage":{"prompt_tokens":1,"completion_tokens":1,"input_tokens":1,"output_tokens":1}
		}`))
	}))
	defer srv.Close()
	for name, c := range faultClients(srv.URL) {
		t.Run(name, func(t *testing.T) {
			hits.Store(0)
			r := newRetrying(c, 3, time.Millisecond)
			var slept []time.Duration
			r.sleep = func(d time.Duration) { slept = append(slept, d) }
			resp, err := r.Complete(context.Background(), Request{Model: "m", Prompt: "p"})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Completion != "Question 1: Yes" {
				t.Errorf("Completion = %q", resp.Completion)
			}
			if len(slept) != 1 || slept[0] < 2*time.Second {
				t.Errorf("slept %v, want one wait of at least 2s", slept)
			}
		})
	}
}

// TestLiveClientsMapContextOverflow: the reply each live API sends for a
// prompt over the model's context window is an APIError that matches
// ErrContextLength and that Transient refuses to retry, so the engine
// trims demonstrations against a live model as it does against the
// simulator. Look-alike replies stay plain permanent or 5xx failures.
func TestLiveClientsMapContextOverflow(t *testing.T) {
	const (
		openAIOverflow = `{"error":{"message":"This model's maximum context length is 4097 tokens. However, your messages resulted in 5000 tokens.",` +
			`"type":"invalid_request_error","param":"messages","code":"context_length_exceeded"}}`
		anthropicOverflow = `{"type":"error","error":{"type":"invalid_request_error","message":"prompt is too long: 200001 tokens > 200000 maximum"}}`
	)
	for _, tc := range []struct {
		name, client string
		status       int
		body         string
		overflow     bool
		wantClass    error
		wantMsg      string
	}{
		{"openai overflow", "openai", 400, openAIOverflow, true, ErrPermanent, "maximum context length"},
		{"anthropic overflow", "anthropic", 400, anthropicOverflow, true, ErrPermanent, "prompt is too long"},
		{"openai overflow code at 500", "openai", 500, openAIOverflow, false, ErrOverloaded, "maximum context length"},
		{"anthropic overflow message at 413", "anthropic", 413, anthropicOverflow, false, ErrPermanent, "prompt is too long"},
		{"null code", "openai", 400, `{"error":{"message":"bad model","type":"invalid_request_error","code":null}}`, false, ErrPermanent, "bad model"},
		{"numeric code", "openai", 400, `{"error":{"message":"bad model","type":"invalid_request_error","code":400}}`, false, ErrPermanent, "bad model"},
		{"object code", "openai", 400, `{"error":{"message":"bad model","type":"invalid_request_error","code":{"x":[1]}}}`, false, ErrPermanent, "bad model"},
		{"other invalid request", "anthropic", 400, `{"type":"error","error":{"type":"invalid_request_error","message":"max_tokens: too large"}}`, false, ErrPermanent, "max_tokens"},
		{"too long, other type", "anthropic", 400, `{"type":"error","error":{"type":"api_error","message":"prompt is too long"}}`, false, ErrPermanent, "prompt is too long"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			_, err := faultClients(srv.URL)[tc.client].Complete(context.Background(), Request{Model: "m", Prompt: "p"})
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != tc.status {
				t.Fatalf("err = %v, want an *APIError with status %d", err, tc.status)
			}
			if got := errors.Is(err, ErrContextLength); got != tc.overflow {
				t.Errorf("errors.Is(%v, ErrContextLength) = %v, want %v", err, got, tc.overflow)
			}
			if !errors.Is(err, tc.wantClass) {
				t.Errorf("err = %v, want class %v", err, tc.wantClass)
			}
			if tc.overflow && Transient(err) {
				t.Errorf("Transient(%v) = true, want a context overflow never retried", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error text %q should carry the api message %q", err, tc.wantMsg)
			}
		})
	}
}
