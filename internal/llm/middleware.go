package llm

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// sleepCtx blocks for d or until ctx is cancelled, whichever comes first.
// A non-nil stub (set by tests) replaces the real timer; ctx is still
// consulted afterwards so cancellation semantics survive stubbing.
func sleepCtx(ctx context.Context, d time.Duration, stub func(time.Duration)) error {
	if stub != nil {
		stub(d)
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// Retrying wraps a Client with bounded, class-aware retries: any
// non-transient error (see Transient) short-circuits after one
// attempt, transient errors back off with seeded full jitter —
// uniform in [0, BaseDelay<<attempt] — de-synchronizing the herd of
// concurrent windows, and a 429's Retry-After hint floors the wait.
// Context cancellation aborts both the backoff sleep and any further
// attempts.
type Retrying struct {
	inner Client
	// MaxAttempts is the total number of tries (>= 1).
	MaxAttempts int
	// BaseDelay scales the backoff: attempt n waits a uniform random
	// duration in [0, BaseDelay<<n], floored by any Retry-After hint.
	BaseDelay time.Duration
	// sleep is stubbed in tests; nil uses a ctx-aware timer.
	sleep func(time.Duration)

	mu      sync.Mutex
	rnd     *rand.Rand
	retries atomic.Int64
}

// NewRetryingSeeded returns a retrying wrapper with the given attempt
// budget and jitter seed, so backoff schedules are reproducible yet
// distinct across processes (e.g. per shard).
func NewRetryingSeeded(inner Client, maxAttempts int, baseDelay time.Duration, seed int64) *Retrying {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	return &Retrying{
		inner:       inner,
		MaxAttempts: maxAttempts,
		BaseDelay:   baseDelay,
		rnd:         rand.New(rand.NewSource(seed)),
	}
}

// Retries reports how many retry attempts (attempts after the first)
// this wrapper has issued over its lifetime.
func (t *Retrying) Retries() int64 { return t.retries.Load() }

// backoff draws the jittered wait for the given attempt: uniform in
// [0, BaseDelay<<attempt].
func (t *Retrying) backoff(attempt int) time.Duration {
	if t.BaseDelay <= 0 {
		return 0
	}
	if attempt > 16 {
		attempt = 16 // cap the ceiling; beyond this the jitter range is hours
	}
	ceil := t.BaseDelay << attempt
	if ceil <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rnd == nil {
		t.rnd = rand.New(rand.NewSource(1))
	}
	return time.Duration(t.rnd.Int63n(int64(ceil) + 1))
}

// Complete implements Client.
func (t *Retrying) Complete(ctx context.Context, req Request) (Response, error) {
	var lastErr error
	for attempt := 0; attempt < t.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return Response{}, err
		}
		resp, err := t.inner.Complete(ctx, req)
		if err == nil {
			return resp, nil
		}
		if !Transient(err) {
			return Response{}, err
		}
		// Distinguish the caller giving up from the inner client's own
		// deadline: an HTTP client's per-request timeout also surfaces as
		// context.DeadlineExceeded but is transient and worth retrying.
		// Only the caller's ctx ends the retry loop.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Response{}, ctxErr
		}
		lastErr = err
		if attempt < t.MaxAttempts-1 {
			t.retries.Add(1)
			delay := t.backoff(attempt)
			if ra, ok := RetryAfterHint(err); ok && ra > delay {
				delay = ra
			}
			if delay > 0 || t.BaseDelay > 0 {
				if err := sleepCtx(ctx, delay, t.sleep); err != nil {
					return Response{}, err
				}
			}
		}
	}
	return Response{}, lastErr
}
