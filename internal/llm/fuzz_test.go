package llm

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// FuzzClientResponse serves one fuzzed response — status, Retry-After
// header and body — to both live clients and checks what they make of
// it: no panic, every failure an *APIError with a non-negative
// RetryAfter, and a non-200 status that reached the client classified
// by classifyStatus. A response the transport itself rejects (status 0)
// must be a transport failure. Statuses outside 200–599 are folded into
// that range: 1xx are informational, not final, responses.
func FuzzClientResponse(f *testing.F) {
	var (
		mu         sync.Mutex
		status     int
		retryAfter string
		body       []byte
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		st, ra, b := status, retryAfter, body
		mu.Unlock()
		if ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.WriteHeader(st)
		w.Write(b)
	}))
	defer srv.Close()
	clients := faultClients(srv.URL)
	f.Fuzz(func(t *testing.T, st int, ra string, b []byte) {
		if st < 200 || st > 599 {
			st = 200 + int(uint(st)%400)
		}
		mu.Lock()
		status, retryAfter, body = st, ra, b
		mu.Unlock()
		for name, c := range clients {
			_, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"})
			if err == nil {
				if st != http.StatusOK {
					t.Fatalf("%s: status %d answered without error", name, st)
				}
				continue
			}
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("%s: err = %T (%v), want *APIError", name, err, err)
			}
			if apiErr.RetryAfter < 0 {
				t.Fatalf("%s: Retry-After %q read as %v", name, ra, apiErr.RetryAfter)
			}
			switch {
			case apiErr.Status == 0:
				if apiErr.Kind != KindTransport {
					t.Fatalf("%s: status-less failure classified %v: %v", name, apiErr.Kind, err)
				}
			case apiErr.Status != st:
				t.Fatalf("%s: error carries status %d, server sent %d", name, apiErr.Status, st)
			case st != http.StatusOK && apiErr.Kind != classifyStatus(st):
				t.Fatalf("%s: status %d classified %v, want %v", name, st, apiErr.Kind, classifyStatus(st))
			}
		}
	})
}
