package llm

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestAPIErrorSentinelMatching(t *testing.T) {
	cases := []struct {
		kind     ErrorKind
		sentinel error
	}{
		{KindThrottled, ErrThrottled},
		{KindOverloaded, ErrOverloaded},
		{KindTransport, ErrTransport},
		{KindPermanent, ErrPermanent},
	}
	for _, c := range cases {
		err := error(&APIError{Status: 400, Kind: c.kind, Message: "x"})
		if !errors.Is(err, c.sentinel) {
			t.Errorf("kind %v should match %v", c.kind, c.sentinel)
		}
		for _, other := range cases {
			if other.sentinel != c.sentinel && errors.Is(err, other.sentinel) {
				t.Errorf("kind %v must not match %v", c.kind, other.sentinel)
			}
		}
		// Wrapping must preserve the class.
		wrapped := fmt.Errorf("outer: %w", err)
		if !errors.Is(wrapped, c.sentinel) {
			t.Errorf("wrapped kind %v should still match %v", c.kind, c.sentinel)
		}
		var apiErr *APIError
		if !errors.As(wrapped, &apiErr) || apiErr.Status != 400 {
			t.Errorf("errors.As through wrap failed for kind %v", c.kind)
		}
	}
}

func TestAPIErrorUnwrapPreservesCause(t *testing.T) {
	cause := fmt.Errorf("dial: %w", context.DeadlineExceeded)
	err := error(&APIError{Kind: KindTransport, Err: cause})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("underlying cause lost")
	}
	if !errors.Is(err, ErrTransport) {
		t.Error("class lost")
	}
}

func TestTransient(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"context length", ErrContextLength, false},
		{"unknown model", ErrUnknownModel, false},
		{"circuit open", ErrCircuitOpen, false},
		{"wrapped circuit open", fmt.Errorf("x: %w", ErrCircuitOpen), false},
		{"permanent api", &APIError{Status: 400, Kind: KindPermanent}, false},
		{"throttled", &APIError{Status: 429, Kind: KindThrottled}, true},
		{"overloaded", &APIError{Status: 503, Kind: KindOverloaded}, true},
		{"transport", &APIError{Kind: KindTransport}, true},
		{"unclassified", errors.New("boom"), true},
		{"inner timeout", fmt.Errorf("Post: %w", context.DeadlineExceeded), true},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetryAfterHint(t *testing.T) {
	if _, ok := RetryAfterHint(errors.New("x")); ok {
		t.Error("unclassified error should carry no hint")
	}
	if _, ok := RetryAfterHint(&APIError{Kind: KindThrottled}); ok {
		t.Error("zero RetryAfter should report no hint")
	}
	err := fmt.Errorf("w: %w", &APIError{Kind: KindThrottled, RetryAfter: 2 * time.Second})
	if d, ok := RetryAfterHint(err); !ok || d != 2*time.Second {
		t.Errorf("hint = %v/%v, want 2s/true", d, ok)
	}
}

func TestClassifyStatus(t *testing.T) {
	cases := map[int]ErrorKind{
		400: KindPermanent,
		401: KindPermanent,
		404: KindPermanent,
		408: KindTransport,
		429: KindThrottled,
		500: KindOverloaded,
		503: KindOverloaded,
		529: KindOverloaded,
	}
	for status, want := range cases {
		if got := classifyStatus(status); got != want {
			t.Errorf("classifyStatus(%d) = %v, want %v", status, got, want)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	h := http.Header{}
	if d := parseRetryAfter(h); d != 0 {
		t.Errorf("absent header = %v", d)
	}
	h.Set("Retry-After", "2")
	if d := parseRetryAfter(h); d != 2*time.Second {
		t.Errorf("2s header = %v", d)
	}
	h.Set("Retry-After", "Wed, 21 Oct 2015 07:28:00 GMT")
	if d := parseRetryAfter(h); d != 0 {
		t.Errorf("http-date form should be ignored, got %v", d)
	}
	h.Set("Retry-After", "-5")
	if d := parseRetryAfter(h); d != 0 {
		t.Errorf("negative header = %v", d)
	}
	// Seconds past time.Duration's range read as absent: the product
	// would wrap, to 290.448384ms and to a negative hint respectively.
	for _, v := range []string{"18446744074", "9300000000"} {
		h.Set("Retry-After", v)
		if d := parseRetryAfter(h); d != 0 {
			t.Errorf("overflowing header %s = %v, want 0", v, d)
		}
	}
	h.Set("Retry-After", "9223372036") // the largest whole-second Duration
	if d := parseRetryAfter(h); d != 9223372036*time.Second {
		t.Errorf("largest representable header = %v", d)
	}
}
