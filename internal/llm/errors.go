package llm

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)

// ErrorKind classifies an API failure by how the caller should react to
// it, independent of which wire protocol produced it.
type ErrorKind int

const (
	// KindTransport covers network-level failures and torn or malformed
	// response bodies: the request may never have reached the backend, or
	// the answer was lost in flight. Retryable.
	KindTransport ErrorKind = iota
	// KindThrottled is an explicit rate-limit rejection (HTTP 429),
	// usually carrying a Retry-After hint. Retryable after backing off.
	KindThrottled
	// KindOverloaded is a backend-side failure (HTTP 5xx): the service
	// is up but unable to answer right now. Retryable.
	KindOverloaded
	// KindPermanent is a request the backend will never accept (HTTP
	// 4xx other than 429/408): retrying burns budget for nothing.
	KindPermanent
)

// String names the kind for error text and logs.
func (k ErrorKind) String() string {
	switch k {
	case KindTransport:
		return "transport"
	case KindThrottled:
		return "throttled"
	case KindOverloaded:
		return "overloaded"
	case KindPermanent:
		return "permanent"
	}
	return "unknown"
}

// Sentinel error classes. APIError.Is maps each Kind onto one of these,
// so callers match classes with errors.Is(err, ErrThrottled) without
// unwrapping the concrete type.
var (
	// ErrThrottled matches rate-limit rejections (KindThrottled).
	ErrThrottled = errors.New("llm: throttled")
	// ErrOverloaded matches backend 5xx failures (KindOverloaded).
	ErrOverloaded = errors.New("llm: backend overloaded")
	// ErrTransport matches network and torn-response failures
	// (KindTransport).
	ErrTransport = errors.New("llm: transport failure")
	// ErrPermanent matches failures that no retry can fix
	// (KindPermanent).
	ErrPermanent = errors.New("llm: permanent failure")
)

// APIError is a classified failure from an LLM backend. Both live
// clients map HTTP status codes, Retry-After headers, and body
// pathologies into it, so middleware can make policy decisions
// (retry, trip a breaker, hedge) without parsing error strings.
type APIError struct {
	// Status is the HTTP status code, or 0 when the failure happened
	// below HTTP (dial error, torn body).
	Status int
	// Kind is the policy-relevant class of the failure.
	Kind ErrorKind
	// RetryAfter is the backend's requested backoff (from a
	// Retry-After header), or 0 when none was given.
	RetryAfter time.Duration
	// Message is the human-readable detail, typically the backend's
	// own error message.
	Message string
	// Err is the underlying cause, if any (e.g. the net/http error).
	Err error
}

// Error implements error.
func (e *APIError) Error() string {
	msg := e.Message
	if msg == "" && e.Err != nil {
		msg = e.Err.Error()
	}
	if e.Status != 0 {
		return fmt.Sprintf("llm: api error (%s, status %d): %s", e.Kind, e.Status, msg)
	}
	return fmt.Sprintf("llm: api error (%s): %s", e.Kind, msg)
}

// Unwrap exposes the underlying cause so wrapped context errors and
// net/http errors stay matchable through the taxonomy.
func (e *APIError) Unwrap() error { return e.Err }

// Is matches the sentinel class for the error's Kind, so
// errors.Is(err, ErrThrottled) works on any *APIError.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrThrottled:
		return e.Kind == KindThrottled
	case ErrOverloaded:
		return e.Kind == KindOverloaded
	case ErrTransport:
		return e.Kind == KindTransport
	case ErrPermanent:
		return e.Kind == KindPermanent
	}
	return false
}

// Transient reports whether retrying err could plausibly succeed.
// Classified permanent failures, the protocol sentinels that no retry
// can fix (ErrContextLength, ErrUnknownModel), and an open circuit
// report false. Unclassified errors report true: legacy wrappers and
// simulated faults keep the retry behavior they always had, including
// an inner HTTP client's own deadline (the caller's context is the
// retry loop's business, not this predicate's).
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrContextLength) || errors.Is(err, ErrUnknownModel) || errors.Is(err, ErrCircuitOpen) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Kind != KindPermanent
	}
	return true
}

// RetryAfterHint extracts the backend's requested backoff from err,
// reporting false when err carries none.
func RetryAfterHint(err error) (time.Duration, bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
		return apiErr.RetryAfter, true
	}
	return 0, false
}

// classifyStatus maps an HTTP status code to its error kind.
func classifyStatus(status int) ErrorKind {
	switch {
	case status == http.StatusTooManyRequests:
		return KindThrottled
	case status == http.StatusRequestTimeout:
		return KindTransport
	case status >= 500:
		return KindOverloaded
	default:
		return KindPermanent
	}
}

// parseRetryAfter reads the integer-seconds form of a Retry-After
// header. The HTTP-date form is deliberately ignored: resolving it
// needs wall-clock time, and every live API this package targets sends
// delta-seconds. A value too large for a time.Duration reads as absent,
// like any other unparseable one.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 || int64(secs) > math.MaxInt64/int64(time.Second) {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// statusError builds the APIError for a non-200 response, preferring
// the backend's own error message when the body carried one.
func statusError(status int, header http.Header, apiType, apiMessage string) *APIError {
	msg := apiMessage
	if msg == "" {
		msg = http.StatusText(status)
	}
	if apiType != "" {
		msg = apiType + ": " + msg
	}
	return &APIError{
		Status:     status,
		Kind:       classifyStatus(status),
		RetryAfter: parseRetryAfter(header),
		Message:    msg,
	}
}

// drainClose discards a bounded remainder of body and closes it, so
// the underlying HTTP connection is reusable after error paths.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}
