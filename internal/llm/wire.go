package llm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"batcher/internal/tokens"
)

// wireError is the error object a live API puts in a failed reply body.
// Code stays raw JSON: OpenAI sends a string or null, and a server that
// sends anything else must not make the whole body unparseable.
type wireError struct {
	Type    string          `json:"type"`
	Message string          `json:"message"`
	Code    json.RawMessage `json:"code"`
}

// contextOverflow reports whether a 400 carrying e refused the prompt
// as longer than the model's context window: OpenAI marks it with the
// code context_length_exceeded, Anthropic with an invalid_request_error
// whose message starts "prompt is too long".
func (e *wireError) contextOverflow() bool {
	var code string
	return (json.Unmarshal(e.Code, &code) == nil && code == "context_length_exceeded") ||
		(e.Type == "invalid_request_error" && strings.HasPrefix(e.Message, "prompt is too long"))
}

// wireReply is the decoded reply body of one wire format.
type wireReply interface {
	// apiError returns the body's error object, or nil.
	apiError() *wireError
	// answer returns the completion and the token usage the body
	// reports, or a non-empty problem when the body holds no answer.
	answer() (text string, in, out int, problem string)
}

// roundTrip is the HTTP exchange both live clients share. It posts body
// as JSON to url with header added, bound to ctx, through hc (a client
// with a 60 s timeout when nil), and decodes at most 1 MiB of the reply
// into reply. A non-200 status is classified by statusError; a 200 with
// a malformed body, an error object or no answer is an APIError too.
// A 400 that refuses the prompt as too long for the model's context
// matches ErrContextLength, so the engine trims it as it would against
// the simulator.
// Usage a server leaves out is counted locally from prompt and the
// completion, so billing never silently records zero.
func roundTrip(ctx context.Context, hc *http.Client, url string, header http.Header, body any, reply wireReply, prompt string) (Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return Response{}, fmt.Errorf("llm: encode request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return Response{}, fmt.Errorf("llm: build request: %w", err)
	}
	for k, v := range header {
		httpReq.Header[k] = v
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	resp, err := hc.Do(httpReq)
	if err != nil {
		return Response{}, &APIError{Kind: KindTransport, Message: "request failed", Err: err}
	}
	// Drain any unread remainder before closing so the connection is
	// reusable even on error paths.
	defer drainClose(resp.Body)
	data, err = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Response{}, &APIError{Status: resp.StatusCode, Kind: KindTransport, Message: "truncated response body", Err: err}
	}
	jsonErr := json.Unmarshal(data, reply)
	if resp.StatusCode != http.StatusOK {
		// Classify by status; the body's error message (when it parses)
		// rides along for the humans.
		var apiType, apiMsg string
		overflow := false
		if e := reply.apiError(); jsonErr == nil && e != nil {
			apiType, apiMsg = e.Type, e.Message
			overflow = resp.StatusCode == http.StatusBadRequest && e.contextOverflow()
		}
		err := statusError(resp.StatusCode, resp.Header, apiType, apiMsg)
		if overflow {
			err.Err = ErrContextLength
		}
		return Response{}, err
	}
	if jsonErr != nil {
		return Response{}, &APIError{Status: resp.StatusCode, Kind: KindTransport, Message: "malformed response body", Err: jsonErr}
	}
	if e := reply.apiError(); e != nil {
		return Response{}, &APIError{Status: resp.StatusCode, Kind: KindPermanent,
			Message: fmt.Sprintf("%s: %s", e.Type, e.Message)}
	}
	text, in, out, problem := reply.answer()
	if problem != "" {
		return Response{}, &APIError{Status: resp.StatusCode, Kind: KindTransport, Message: problem}
	}
	if in == 0 {
		in = tokens.Count(prompt)
	}
	if out == 0 {
		out = tokens.Count(text)
	}
	return Response{Completion: text, InputTokens: in, OutputTokens: out}, nil
}
