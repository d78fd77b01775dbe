package llm

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// scripted is a Client returning queued responses/errors.
type scripted struct {
	mu    sync.Mutex
	resps []Response
	errs  []error
	calls int
}

func (s *scripted) Complete(context.Context, Request) (Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.calls
	s.calls++
	var r Response
	var e error
	if i < len(s.resps) {
		r = s.resps[i]
	}
	if i < len(s.errs) {
		e = s.errs[i]
	}
	return r, e
}

// newRetrying is NewRetryingSeeded at jitter seed 1, the fixed seed
// these tests were written against.
func newRetrying(inner Client, maxAttempts int, baseDelay time.Duration) *Retrying {
	return NewRetryingSeeded(inner, maxAttempts, baseDelay, 1)
}

func TestRetryingSucceedsAfterTransient(t *testing.T) {
	transient := errors.New("rate limited")
	inner := &scripted{
		resps: []Response{{}, {}, {Completion: "ok"}},
		errs:  []error{transient, transient, nil},
	}
	r := newRetrying(inner, 3, time.Millisecond)
	var slept []time.Duration
	r.sleep = func(d time.Duration) { slept = append(slept, d) }
	resp, err := r.Complete(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completion != "ok" {
		t.Errorf("Completion = %q", resp.Completion)
	}
	if inner.calls != 3 {
		t.Errorf("calls = %d, want 3", inner.calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	// Full jitter: attempt n draws uniformly from [0, BaseDelay<<n].
	for i, d := range slept {
		if ceil := time.Millisecond << i; d < 0 || d > ceil {
			t.Errorf("backoff[%d] = %v, want within [0, %v]", i, d, ceil)
		}
	}
}

func TestRetryingGivesUp(t *testing.T) {
	transient := errors.New("boom")
	inner := &scripted{errs: []error{transient, transient, transient}}
	r := newRetrying(inner, 3, 0)
	r.sleep = func(time.Duration) {}
	_, err := r.Complete(context.Background(), Request{})
	if !errors.Is(err, transient) {
		t.Errorf("err = %v", err)
	}
	if inner.calls != 3 {
		t.Errorf("calls = %d", inner.calls)
	}
}

func TestRetryingPermanentErrorsNotRetried(t *testing.T) {
	for _, perm := range []error{ErrContextLength, ErrUnknownModel} {
		inner := &scripted{errs: []error{perm, nil}}
		r := newRetrying(inner, 5, 0)
		r.sleep = func(time.Duration) {}
		_, err := r.Complete(context.Background(), Request{})
		if !errors.Is(err, perm) {
			t.Errorf("err = %v, want %v", err, perm)
		}
		if inner.calls != 1 {
			t.Errorf("permanent error retried %d times", inner.calls)
		}
	}
}

func TestRetryingMinAttempts(t *testing.T) {
	inner := &scripted{resps: []Response{{Completion: "x"}}}
	r := newRetrying(inner, 0, 0) // clamped to 1
	if _, err := r.Complete(context.Background(), Request{}); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 1 {
		t.Errorf("calls = %d", inner.calls)
	}
}

func TestOpenAICompatibleHappyPath(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/chat/completions" {
			t.Errorf("path = %s", r.URL.Path)
		}
		if got := r.Header.Get("Authorization"); got != "Bearer sk-test" {
			t.Errorf("auth = %q", got)
		}
		w.Write([]byte(`{
			"choices":[{"message":{"role":"assistant","content":"Question 1: Yes"}}],
			"usage":{"prompt_tokens":42,"completion_tokens":5}
		}`))
	}))
	defer srv.Close()
	c := &OpenAICompatible{BaseURL: srv.URL, APIKey: "sk-test"}
	resp, err := c.Complete(context.Background(), Request{Model: "gpt-3.5-turbo", Prompt: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completion != "Question 1: Yes" {
		t.Errorf("Completion = %q", resp.Completion)
	}
	if resp.InputTokens != 42 || resp.OutputTokens != 5 {
		t.Errorf("usage = %d/%d", resp.InputTokens, resp.OutputTokens)
	}
}

func TestOpenAICompatibleAPIError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(429)
		w.Write([]byte(`{"error":{"message":"rate limit","type":"rate_limit_error"}}`))
	}))
	defer srv.Close()
	c := &OpenAICompatible{BaseURL: srv.URL}
	_, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"})
	if err == nil || !contains(err.Error(), "rate limit") {
		t.Errorf("err = %v", err)
	}
}

func TestOpenAICompatibleMissingUsageFallsBack(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"choices":[{"message":{"role":"assistant","content":"Question 1: No"}}]}`))
	}))
	defer srv.Close()
	c := &OpenAICompatible{BaseURL: srv.URL}
	resp, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "some prompt text here"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.InputTokens == 0 || resp.OutputTokens == 0 {
		t.Errorf("usage fallback missing: %d/%d", resp.InputTokens, resp.OutputTokens)
	}
}

func TestOpenAICompatibleEmptyChoices(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"choices":[]}`))
	}))
	defer srv.Close()
	c := &OpenAICompatible{BaseURL: srv.URL}
	if _, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"}); err == nil {
		t.Error("empty choices should error")
	}
}

func TestOpenAICompatibleBadJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{not json`))
	}))
	defer srv.Close()
	c := &OpenAICompatible{BaseURL: srv.URL}
	if _, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"}); err == nil {
		t.Error("bad json should error")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestRetryingStopsOnContextCancel(t *testing.T) {
	transient := errors.New("flaky")
	inner := &scripted{errs: []error{transient, transient, transient}}
	ctx, cancel := context.WithCancel(context.Background())
	r := newRetrying(inner, 5, time.Millisecond)
	r.sleep = func(time.Duration) { cancel() } // cancel during the first backoff
	_, err := r.Complete(ctx, Request{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if inner.calls != 1 {
		t.Errorf("calls = %d, want 1 (no attempts after cancel)", inner.calls)
	}
}

func TestRetryingPreCancelledContext(t *testing.T) {
	inner := &scripted{resps: []Response{{Completion: "x"}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := newRetrying(inner, 3, 0)
	if _, err := r.Complete(ctx, Request{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
	if inner.calls != 0 {
		t.Errorf("calls = %d, want 0", inner.calls)
	}
}

func TestRetryingRetriesInnerClientTimeout(t *testing.T) {
	// An HTTP client's per-request timeout surfaces as a wrapped
	// context.DeadlineExceeded even though the caller's ctx is alive;
	// it is transient and must be retried.
	timeoutErr := fmt.Errorf("Post \"/chat\": %w", context.DeadlineExceeded)
	inner := &scripted{resps: []Response{{}, {Completion: "ok"}}, errs: []error{timeoutErr, nil}}
	r := newRetrying(inner, 3, 0)
	r.sleep = func(time.Duration) {}
	resp, err := r.Complete(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completion != "ok" {
		t.Errorf("Completion = %q", resp.Completion)
	}
	if inner.calls != 2 {
		t.Errorf("calls = %d, want 2 (timeout retried once)", inner.calls)
	}
}
