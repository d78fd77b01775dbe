package llm

import (
	"context"
	"testing"
)

// tagging answers with a fixed completion so tests can tell which
// backend served a request.
type tagging struct {
	tag   string
	calls int
}

func (c *tagging) Complete(_ context.Context, req Request) (Response, error) {
	c.calls++
	return Response{Completion: c.tag, InputTokens: 1, OutputTokens: 1}, nil
}

func TestTieredRoutesByRequestTier(t *testing.T) {
	cheap := &tagging{tag: "cheap"}
	expensive := &tagging{tag: "expensive"}
	router := NewTiered(cheap, expensive)
	cases := []struct {
		tier Tier
		want string
	}{
		{TierDefault, "cheap"},
		{TierCheap, "cheap"},
		{TierExpensive, "expensive"},
	}
	for _, tc := range cases {
		resp, err := router.Complete(context.Background(), Request{Model: "m", Prompt: "p", Tier: tc.tier})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Completion != tc.want {
			t.Errorf("tier %v routed to %q, want %q", tc.tier, resp.Completion, tc.want)
		}
	}
	if cheap.calls != 2 || expensive.calls != 1 {
		t.Errorf("calls = %d cheap / %d expensive, want 2/1", cheap.calls, expensive.calls)
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{
		TierDefault:   "default",
		TierCheap:     "cheap",
		TierExpensive: "expensive",
	} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, got, want)
		}
	}
}
