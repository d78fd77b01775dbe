package runstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"batcher/internal/llm"
)

// Len returns the number of cached responses currently held.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// countClient counts completions and answers deterministically per prompt.
type countClient struct {
	mu    sync.Mutex
	calls int
}

func (c *countClient) Complete(_ context.Context, req llm.Request) (llm.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	return llm.Response{
		Completion:   "answer to " + req.Prompt,
		InputTokens:  len(req.Prompt),
		OutputTokens: 7,
	}, nil
}

func TestCacheHitSkipsInnerAndBillsZero(t *testing.T) {
	inner := &countClient{}
	c, err := OpenCache(context.Background(), inner, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := llm.Request{Model: "m", Prompt: "p", Temperature: 0.01}
	r1, err := c.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || r1.InputTokens == 0 {
		t.Errorf("miss mis-flagged: %+v", r1)
	}
	r2, err := c.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || r2.InputTokens != 0 || r2.OutputTokens != 0 {
		t.Errorf("hit not free: %+v", r2)
	}
	if r2.Completion != r1.Completion {
		t.Error("hit served different completion")
	}
	if inner.calls != 1 {
		t.Errorf("inner calls = %d, want 1", inner.calls)
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Errorf("stats = %d/%d", h, m)
	}
}

func TestCachePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	inner := &countClient{}
	c, _ := OpenCache(context.Background(), inner, dir, 0)
	req := llm.Request{Model: "m", System: "s", Prompt: "p", Temperature: 0.01, MaxTokens: 64}
	orig, _ := c.Complete(context.Background(), req)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(context.Background(), inner, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", c2.Len())
	}
	got, err := c2.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit || got.Completion != orig.Completion {
		t.Errorf("persisted entry not served: %+v", got)
	}
	if inner.calls != 1 {
		t.Errorf("inner re-billed after reopen: %d calls", inner.calls)
	}
	// A request differing only in System must miss: the key covers the
	// full request.
	other := req
	other.System = "different"
	if r, _ := c2.Complete(context.Background(), other); r.CacheHit {
		t.Error("different system prompt served a stale hit")
	}
}

func TestCacheCompactionBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	inner := &countClient{}
	const budget = 8 * 1024
	c, _ := OpenCache(context.Background(), inner, dir, budget)
	for i := 0; i < 300; i++ {
		_, err := c.Complete(context.Background(), llm.Request{
			Model: "m", Prompt: fmt.Sprintf("prompt-%03d-%s", i, "padpadpadpadpadpadpadpad"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	names, _, _ := listSegments(dir, "cache")
	for _, n := range names {
		fi, err := os.Stat(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	// Envelope overhead means disk can exceed the live-entry budget by a
	// constant factor, but it must be bounded, not linear in inserts.
	if onDisk > 4*budget {
		t.Errorf("disk usage %d not bounded by budget %d", onDisk, budget)
	}

	// The most recent entries survive; reopen sees a working, bounded set.
	c2, err := OpenCache(context.Background(), inner, dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() == 0 || c2.Len() >= 300 {
		t.Errorf("reopened Len = %d, want partial survivor set", c2.Len())
	}
	last := llm.Request{Model: "m", Prompt: fmt.Sprintf("prompt-%03d-%s", 299, "padpadpadpadpadpadpadpad")}
	if r, _ := c2.Complete(context.Background(), last); !r.CacheHit {
		t.Error("most recent entry evicted by compaction")
	}
}

// Regression: compaction must persist entries oldest-first so a
// reopened cache reconstructs the same LRU ranking. Written
// newest-first, a reload would invert recency and the next compaction
// would evict the hottest entries.
func TestCacheCompactionPreservesRecencyAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	inner := &countClient{}
	const budget = 4 * 1024
	c, _ := OpenCache(context.Background(), inner, dir, budget)
	pad := "padpadpadpadpadpadpadpadpadpadpad"
	req := func(i int) llm.Request {
		return llm.Request{Model: "m", Prompt: fmt.Sprintf("prompt-%03d-%s", i, pad)}
	}
	for i := 0; i < 120; i++ {
		if _, err := c.Complete(context.Background(), req(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The hottest entry by far: re-touch the newest.
	hottest := req(119)
	c.Complete(context.Background(), hottest)
	c.Close()

	c2, err := OpenCache(context.Background(), inner, dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if r, _ := c2.Complete(context.Background(), hottest); !r.CacheHit {
		t.Fatal("hottest entry did not survive compaction+reopen")
	}
	// Force another compaction cycle in the reopened process, keeping
	// the entry hot throughout; it must survive every eviction round.
	for i := 1000; i < 1120; i++ {
		if _, err := c2.Complete(context.Background(), req(i)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			c2.Complete(context.Background(), hottest)
		}
	}
	if r, _ := c2.Complete(context.Background(), hottest); !r.CacheHit {
		t.Error("post-reopen compaction evicted a continuously-hot entry")
	}
}

func TestCacheToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	inner := &countClient{}
	c, _ := OpenCache(context.Background(), inner, dir, 0)
	c.Complete(context.Background(), llm.Request{Model: "m", Prompt: "keep"})
	c.Close()

	names, _, _ := listSegments(dir, "cache")
	f, _ := os.OpenFile(filepath.Join(dir, names[len(names)-1]), os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString(`{"c":99,"r":{"k":"torn`)
	f.Close()

	c2, err := OpenCache(context.Background(), inner, dir, 0)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer c2.Close()
	if r, _ := c2.Complete(context.Background(), llm.Request{Model: "m", Prompt: "keep"}); !r.CacheHit {
		t.Error("entry before torn tail lost")
	}
}

func TestCacheConcurrent(t *testing.T) {
	inner := &countClient{}
	c, _ := OpenCache(context.Background(), inner, t.TempDir(), 0)
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := c.Complete(context.Background(), llm.Request{
					Model: "m", Prompt: fmt.Sprintf("p%d", i%10),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 10 {
		t.Errorf("Len = %d, want 10 distinct prompts", c.Len())
	}
}
