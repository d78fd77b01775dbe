package llm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// counting is a Client that counts calls and echoes a canned answer.
type counting struct {
	mu    sync.Mutex
	calls int
	err   error
}

func (c *counting) Complete(_ context.Context, req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.err != nil {
		return Response{}, c.err
	}
	return Response{Completion: "Question 1: Yes", InputTokens: 10, OutputTokens: 4}, nil
}

func TestCachedHitsSkipInner(t *testing.T) {
	inner := &counting{}
	c := NewCached(inner, 10)
	req := Request{Model: "m", Prompt: "p", Temperature: 0.01}
	r1, err := c.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if inner.calls != 1 {
		t.Errorf("inner calls = %d, want 1", inner.calls)
	}
	if r1.Completion != r2.Completion {
		t.Error("cached completion differs")
	}
	if r2.InputTokens != 0 || r2.OutputTokens != 0 {
		t.Errorf("cache hit billed tokens: %d/%d", r2.InputTokens, r2.OutputTokens)
	}
}

// Len returns the number of cached responses.
func (c *Cached) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func TestCachedKeyIncludesModelAndTemperature(t *testing.T) {
	inner := &counting{}
	c := NewCached(inner, 10)
	c.Complete(context.Background(), Request{Model: "a", Prompt: "p", Temperature: 0.01})
	c.Complete(context.Background(), Request{Model: "b", Prompt: "p", Temperature: 0.01})
	c.Complete(context.Background(), Request{Model: "a", Prompt: "p", Temperature: 0.9})
	if inner.calls != 3 {
		t.Errorf("distinct requests collapsed: %d calls", inner.calls)
	}
}

// Regression: the key once hashed only model/prompt/temperature, so two
// configs differing in system prompt or max-tokens served each other's
// (stale) completions. The full request must participate.
func TestCacheKeyCoversFullRequest(t *testing.T) {
	base := Request{Model: "m", System: "s", Prompt: "p", Temperature: 0.01, MaxTokens: 64}
	variants := []Request{
		{Model: "m2", System: "s", Prompt: "p", Temperature: 0.01, MaxTokens: 64},
		{Model: "m", System: "s2", Prompt: "p", Temperature: 0.01, MaxTokens: 64},
		{Model: "m", System: "", Prompt: "p", Temperature: 0.01, MaxTokens: 64},
		{Model: "m", System: "s", Prompt: "p2", Temperature: 0.01, MaxTokens: 64},
		{Model: "m", System: "s", Prompt: "p", Temperature: 0.02, MaxTokens: 64},
		{Model: "m", System: "s", Prompt: "p", Temperature: 0.01, MaxTokens: 65},
		{Model: "m", System: "s", Prompt: "p", Temperature: 0.01, MaxTokens: 0},
		{Model: "m", System: "s", Prompt: "p", Temperature: 0.01, MaxTokens: 64, Tier: TierExpensive},
	}
	seen := map[string]int{CacheKey(base): -1}
	for i, v := range variants {
		k := CacheKey(v)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: %+v", i, prev, v)
		}
		seen[k] = i
	}
	if CacheKey(base) != CacheKey(base) {
		t.Error("key not deterministic")
	}
	// Field boundaries must be unambiguous: moving a byte from System to
	// Prompt is a different request.
	a := Request{Model: "m", System: "ab", Prompt: "c"}
	b := Request{Model: "m", System: "a", Prompt: "bc"}
	if CacheKey(a) == CacheKey(b) {
		t.Error("system/prompt boundary ambiguous in key")
	}
}

func TestCachedHitSetsCacheHit(t *testing.T) {
	inner := &counting{}
	c := NewCached(inner, 10)
	req := Request{Model: "m", Prompt: "p"}
	r1, _ := c.Complete(context.Background(), req)
	if r1.CacheHit {
		t.Error("miss flagged as cache hit")
	}
	r2, _ := c.Complete(context.Background(), req)
	if !r2.CacheHit {
		t.Error("hit not flagged as cache hit")
	}
}

func TestCachedLRUEviction(t *testing.T) {
	inner := &counting{}
	c := NewCached(inner, 2)
	for i := 0; i < 3; i++ {
		c.Complete(context.Background(), Request{Model: "m", Prompt: fmt.Sprintf("p%d", i)})
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	// p0 was evicted: asking again must call inner.
	before := inner.calls
	c.Complete(context.Background(), Request{Model: "m", Prompt: "p0"})
	if inner.calls != before+1 {
		t.Error("evicted entry served from cache")
	}
	// p2 is still cached.
	before = inner.calls
	c.Complete(context.Background(), Request{Model: "m", Prompt: "p2"})
	if inner.calls != before {
		t.Error("recent entry not served from cache")
	}
}

func TestCachedErrorNotCached(t *testing.T) {
	boom := errors.New("boom")
	inner := &counting{err: boom}
	c := NewCached(inner, 10)
	if _, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	inner.err = nil
	if _, err := c.Complete(context.Background(), Request{Model: "m", Prompt: "p"}); err != nil {
		t.Fatalf("second attempt err = %v", err)
	}
	if inner.calls != 2 {
		t.Errorf("calls = %d, want 2 (errors must not be cached)", inner.calls)
	}
}

func TestCachedConcurrent(t *testing.T) {
	inner := &counting{}
	c := NewCached(inner, 100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Complete(context.Background(), Request{Model: "m", Prompt: fmt.Sprintf("p%d", i%10)})
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 10 {
		t.Errorf("Len = %d, want 10 distinct prompts", c.Len())
	}
}

func TestMiddlewareComposition(t *testing.T) {
	// Retrying around cache around inner: the cached hit reaches the
	// outer layer with zero tokens, proving composition works.
	inner := &counting{}
	stack := newRetrying(NewCached(inner, 10), 3, time.Millisecond)
	req := Request{Model: "m", Prompt: "p"}
	var in int
	for range 2 {
		resp, err := stack.Complete(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		in += resp.InputTokens
	}
	if in != 10 {
		t.Errorf("stack input tokens = %d, want 10 (second call free)", in)
	}
	if inner.calls != 1 {
		t.Errorf("inner calls = %d", inner.calls)
	}
}
