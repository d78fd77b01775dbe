package main

import (
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"batcher/batcher"
	"batcher/internal/llm"
)

// The benchmark's LLM is a stack of llm.Client middleware, each a
// wrapping Complete: requests only ever enter it from core, so the
// ledger discipline erlint enforces holds here too.

// recorder forwards to the simulator and keeps every answer by
// llm.CacheKey, which is what set-up saves for the measuring process.
type recorder struct {
	inner batcher.Client

	mu        sync.Mutex
	responses map[string]batcher.Response
}

// Complete implements llm.Client.
func (r *recorder) Complete(ctx context.Context, req batcher.Request) (batcher.Response, error) {
	resp, err := r.inner.Complete(ctx, req)
	if err != nil {
		return resp, err
	}
	key := llm.CacheKey(req)
	r.mu.Lock()
	r.responses[key] = resp
	r.mu.Unlock()
	return resp, nil
}

// recordedClient answers from a recording by key lookup, so the LLM
// costs a hash and a map read instead of the simulator's two thirds of
// a zero-latency run. A request the recording does not hold means the
// program built a different prompt than at set-up: it is counted, and
// answered by miss so the run still finishes and reports the drift.
type recordedClient struct {
	responses map[string]batcher.Response
	miss      batcher.Client

	calls, misses atomic.Int64
}

// Complete implements llm.Client.
func (c *recordedClient) Complete(ctx context.Context, req batcher.Request) (batcher.Response, error) {
	if err := ctx.Err(); err != nil {
		return batcher.Response{}, err
	}
	c.calls.Add(1)
	if resp, ok := c.responses[llm.CacheKey(req)]; ok {
		return resp, nil
	}
	c.misses.Add(1)
	return c.miss.Complete(ctx, req)
}

// Latency schedule: 90 % of calls are fast, 9 % slow, 1 % in the tail
// that stalls an ordered committer. The issue's 15/40/200 ms are halved
// so one iteration of latency_overlap fits the contract's run length.
const (
	latencyFast = 7500 * time.Microsecond
	latencySlow = 20 * time.Millisecond
	latencyTail = 100 * time.Millisecond
)

// scheduledLatency is a pure function of (seed, prompt): the same call
// waits the same time in every iteration, executor and process.
func scheduledLatency(seed int64, prompt string) time.Duration {
	h := fnv.New64a()
	var s [8]byte
	for i := range s {
		s[i] = byte(seed >> (8 * i))
	}
	h.Write(s[:])
	h.Write([]byte(prompt))
	switch u := h.Sum64() % 100; {
	case u < 90:
		return latencyFast
	case u < 99:
		return latencySlow
	default:
		return latencyTail
	}
}

// scheduledClient sleeps the call's scheduled latency, then forwards.
type scheduledClient struct {
	inner batcher.Client
	seed  int64
}

// Complete implements llm.Client.
func (c *scheduledClient) Complete(ctx context.Context, req batcher.Request) (batcher.Response, error) {
	t := time.NewTimer(scheduledLatency(c.seed, req.Prompt))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return batcher.Response{}, ctx.Err()
	}
	return c.inner.Complete(ctx, req)
}

// call is one observed LLM call.
type call struct {
	start, end time.Time
}

// observedClient times every call passing through it. The traced pass
// puts one around the stub (llm_call spans, in-flight and idle time);
// the cache probe puts one on each side of the disk cache.
type observedClient struct {
	inner batcher.Client

	mu    sync.Mutex
	calls []call
	// requests and completions are kept only when keep is set (the
	// prompt/token probes replay them).
	keep        bool
	requests    []batcher.Request
	completions []string
}

// Complete implements llm.Client.
func (c *observedClient) Complete(ctx context.Context, req batcher.Request) (batcher.Response, error) {
	start := time.Now()
	resp, err := c.inner.Complete(ctx, req)
	end := time.Now()
	c.mu.Lock()
	c.calls = append(c.calls, call{start, end})
	if c.keep && err == nil {
		c.requests = append(c.requests, req)
		c.completions = append(c.completions, resp.Completion)
	}
	c.mu.Unlock()
	return resp, err
}

// busy returns the summed call time.
func (c *observedClient) busy() time.Duration {
	var d time.Duration
	for _, k := range c.calls {
		d += k.end.Sub(k.start)
	}
	return d
}

// reset forgets the observed calls.
func (c *observedClient) reset() {
	c.calls, c.requests, c.completions = nil, nil, nil
}
