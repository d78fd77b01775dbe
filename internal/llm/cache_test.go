package llm

import "testing"

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
