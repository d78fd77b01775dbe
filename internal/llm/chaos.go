package llm

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// FaultProfile describes the fault mix a Chaos client injects. The
// four probabilities partition the unit interval: for each attempt a
// deterministic uniform draw picks at most one fault class. A zero
// profile injects nothing.
type FaultProfile struct {
	// Throttle is the probability of an injected 429 (KindThrottled).
	Throttle float64
	// Overload is the probability of an injected 503 (KindOverloaded).
	Overload float64
	// Transport is the probability of an injected connection failure
	// (KindTransport, no status).
	Transport float64
	// Torn is the probability of an injected torn response body
	// (KindTransport at status 200).
	Torn float64
	// RetryAfter is the hint attached to injected throttles.
	RetryAfter time.Duration
	// MaxFaults bounds how many faults any single request key can
	// draw before it is left alone (0 defaults to 3). Keep it below
	// the retry budget and every request eventually succeeds; a huge
	// value with Overload=1 simulates a full outage.
	MaxFaults int
}

// Chaos wraps a Client with deterministic fault injection for
// resilience testing. The fault decision for a request is a pure
// function of (seed, CacheKey(request), attempt-number-for-that-key),
// so a given seed always produces the same storm — including across a
// crash and resume, where a fresh process replays the same per-key
// fault prefix before its retries break through. Injected faults never
// reach the inner client and bill nothing, which is exactly how a
// rejected or torn HTTP call behaves.
type Chaos struct {
	inner   Client
	profile FaultProfile
	seed    int64

	mu       sync.Mutex
	attempts map[string]int
	injected atomic.Int64
}

// NewChaos returns a fault-injecting wrapper around inner. The same
// (profile, seed) pair yields the same fault schedule on every run.
func NewChaos(inner Client, profile FaultProfile, seed int64) *Chaos {
	return &Chaos{inner: inner, profile: profile, seed: seed, attempts: make(map[string]int)}
}

// Injected reports how many faults this wrapper has injected.
func (c *Chaos) Injected() int64 { return c.injected.Load() }

// unit derives the deterministic uniform draw in [0,1) for attempt n
// of the given request key.
func (c *Chaos) unit(key string, n int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(c.seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(n))
	h.Write(buf[:])
	io.WriteString(h, key)
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Complete implements Client.
func (c *Chaos) Complete(ctx context.Context, req Request) (Response, error) {
	key := CacheKey(req)
	c.mu.Lock()
	n := c.attempts[key]
	c.attempts[key] = n + 1
	c.mu.Unlock()

	maxFaults := c.profile.MaxFaults
	if maxFaults == 0 {
		maxFaults = 3
	}
	if n < maxFaults {
		u := c.unit(key, n)
		p := c.profile
		cum := p.Throttle
		switch {
		case u < cum:
			c.injected.Add(1)
			return Response{}, &APIError{Status: 429, Kind: KindThrottled,
				RetryAfter: p.RetryAfter, Message: "chaos: injected throttle"}
		case u < cum+p.Overload:
			c.injected.Add(1)
			return Response{}, &APIError{Status: 503, Kind: KindOverloaded,
				Message: "chaos: injected overload"}
		case u < cum+p.Overload+p.Transport:
			c.injected.Add(1)
			return Response{}, &APIError{Kind: KindTransport,
				Message: "chaos: injected connection failure"}
		case u < cum+p.Overload+p.Transport+p.Torn:
			c.injected.Add(1)
			return Response{}, &APIError{Status: 200, Kind: KindTransport,
				Message: "chaos: injected torn response"}
		}
	}
	return c.inner.Complete(ctx, req)
}
