package llm

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
)

// Cached wraps a Client with an in-memory LRU response cache keyed by the
// full request identity (see CacheKey). Re-running an experiment with
// unchanged prompts then costs nothing — the same trick practitioners use
// to iterate on ER pipelines without re-billing the API. Cache hits do not
// re-bill tokens: the returned Response reports zero usage and sets
// CacheHit, so ledgers stay truthful. The cache lives and dies with the
// process; for a cache that survives restarts and is shared across runs,
// see runstore.Cache.
type Cached struct {
	inner Client

	mu      sync.Mutex
	max     int
	order   *list.List               // front = most recent
	entries map[string]*list.Element // key -> element of cacheEntry
}

type cacheEntry struct {
	key  string
	resp Response
}

// NewCached returns a caching wrapper holding up to maxEntries responses.
func NewCached(inner Client, maxEntries int) *Cached {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	return &Cached{
		inner:   inner,
		max:     maxEntries,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// CacheKey hashes the full request identity: model, system prompt, user
// prompt, temperature, and max-tokens. Every field that can change the
// completion participates, so configs differing only in, say, the system
// prompt can never serve each other stale hits. The key is stable across
// processes; persistent caches (runstore.Cache) index their on-disk
// entries by it.
func CacheKey(req Request) string {
	h := sha256.New()
	h.Write([]byte(req.Model))
	h.Write([]byte{0})
	h.Write([]byte(req.System))
	h.Write([]byte{0})
	h.Write([]byte(req.Prompt))
	h.Write([]byte{0})
	// Temperature participates: different sampling regimes are different
	// distributions. Hash the IEEE-754 bits so any distinct value gets a
	// distinct key without precision cutoffs.
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(req.Temperature))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(req.MaxTokens))
	binary.LittleEndian.PutUint64(buf[16:], uint64(req.Tier))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Complete implements Client. Cache hits are served without consulting
// ctx; only the inner call on a miss is cancellable.
func (c *Cached) Complete(ctx context.Context, req Request) (Response, error) {
	key := CacheKey(req)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		resp := el.Value.(*cacheEntry).resp
		c.mu.Unlock()
		// A cache hit costs nothing: zero out billed tokens and flag the
		// hit so cost accounting skips the call.
		resp.InputTokens = 0
		resp.OutputTokens = 0
		resp.CacheHit = true
		return resp, nil
	}
	c.mu.Unlock()

	resp, err := c.inner.Complete(ctx, req)
	if err != nil {
		return Response{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Raced with another goroutine; keep the existing entry.
		c.order.MoveToFront(el)
		return resp, nil
	}
	el := c.order.PushFront(&cacheEntry{key: key, resp: resp})
	c.entries[key] = el
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	return resp, nil
}
