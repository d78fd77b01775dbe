package llm

import (
	"strings"
	"testing"
)

// TestCacheKeyCoversFullRequest: every request field changes the key,
// and moving a byte between model and prompt is a different request.
func TestCacheKeyCoversFullRequest(t *testing.T) {
	base := Request{Model: "m", Prompt: "p"}
	variants := []Request{
		{Model: "m2", Prompt: "p"},
		{Model: "m", Prompt: "p2"},
		{Model: "m", Prompt: "p", Tier: TierCheap},
		{Model: "m", Prompt: "p", Tier: TierExpensive},
		{Model: "mp", Prompt: ""},
		{Model: "", Prompt: "mp"},
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
}

// TestCacheKeyPinned pins the key bytes of requests the matcher sends,
// so every response cache already on disk keeps hitting. The digests
// were recorded before the request lost its system-prompt, temperature
// and completion-cap fields: the key still hashes an empty system
// prompt, the bits of 0.01 and a zero cap.
func TestCacheKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		req  Request
		want string
	}{
		{Request{Model: "gpt-3.5-turbo-0301", Prompt: "Question 1: ...", Tier: TierDefault},
			"cd13a10cbfc7b0153d3206efad9ab1a0a0d4efb51187b6edc73c9c33973256dd"},
		{Request{Model: "gpt-4", Prompt: "", Tier: TierExpensive},
			"91a2b13fde811c2fbb531a99ff91e086adc8fefbd6012185bea916e41d2ab81c"},
		{Request{Model: "m", Prompt: "p", Tier: TierCheap},
			"1a1999940ebd930f2b424d11604714bcb06876fd2c687297144c9a8f6c4d5cad"},
	} {
		if got := CacheKey(tc.req); got != tc.want {
			t.Errorf("CacheKey(%q, %q, %v) = %s, want %s", tc.req.Model, tc.req.Prompt, tc.req.Tier, got, tc.want)
		}
	}
}

// TestCacheKeyAllocsOne pins CacheKey to one allocation, the key string:
// a prompt of several kilobytes is hashed in place, not copied.
func TestCacheKeyAllocsOne(t *testing.T) {
	req := Request{Model: "gpt-3.5-turbo-0301", Prompt: strings.Repeat("Question 1: Entity A is title: x ... ", 100), Tier: TierCheap}
	if allocs := testing.AllocsPerRun(100, func() { CacheKey(req) }); allocs != 1 {
		t.Errorf("CacheKey made %v allocations per call, want 1 (the key)", allocs)
	}
}
