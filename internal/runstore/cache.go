package runstore

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"batcher/internal/llm"
)

// cacheRecord is one persisted response.
type cacheRecord struct {
	Key          string `json:"k"`
	Completion   string `json:"completion"`
	InputTokens  int    `json:"in"`
	OutputTokens int    `json:"out"`
}

func (r *cacheRecord) size() int64 {
	// Approximate encoded size; exactness is irrelevant, the bound only
	// has to hold within a constant factor of the envelope overhead.
	return int64(len(r.Key) + len(r.Completion) + 64)
}

type cacheVal struct {
	resp llm.Response
	used uint64 // monotonic recency stamp
	size int64
}

// Cache is a disk-backed LLM response cache: llm.Cached's contract
// (identical requests are served locally, bill zero tokens, and set
// Response.CacheHit) with a store that survives process restarts.
// Entries are content-addressed by llm.CacheKey — the full request
// identity — so any number of experiments can share one cache directory
// (sequentially; the directory is single-writer) and re-runs of
// identical prompts are free across process boundaries.
//
// The store is append-only JSONL segments with per-record checksums;
// writes are fsynced in batches. When the on-disk size exceeds the
// configured budget the cache compacts: live entries are rewritten in
// recency order into a fresh segment until the budget is ~80% full and
// the old segments are deleted, evicting the least recently used
// responses. Responses are also held in memory for hit lookups, so the
// byte budget bounds memory within the same constant factor.
type Cache struct {
	inner llm.Client

	mu       sync.Mutex
	dir      string
	maxBytes int64
	log      *segLog
	entries  map[string]*cacheVal
	bytes    int64 // approximate live bytes on disk
	used     uint64
	hits     int
	misses   int
}

// DefaultCacheBytes is the disk budget used when OpenCache is given a
// non-positive one: large enough for millions of short ER completions.
const DefaultCacheBytes = 256 << 20

// OpenCache opens (creating if necessary) the persistent response cache
// stored in dir, wrapping inner. maxBytes bounds the on-disk size;
// values <= 0 use DefaultCacheBytes. ctx bounds the replay of existing
// cache segments; cancelling it abandons the open with no cache.
func OpenCache(ctx context.Context, inner llm.Client, dir string, maxBytes int64) (*Cache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Cache{
		inner:    inner,
		dir:      dir,
		maxBytes: maxBytes,
		entries:  map[string]*cacheVal{},
	}
	last, err := readSegments(ctx, dir, "cache", func(rec *cacheRecord) error {
		c.used++
		if old, ok := c.entries[rec.Key]; ok {
			c.bytes -= old.size
		}
		c.entries[rec.Key] = &cacheVal{
			resp: llm.Response{
				Completion:   rec.Completion,
				InputTokens:  rec.InputTokens,
				OutputTokens: rec.OutputTokens,
			},
			used: c.used,
			size: rec.size(),
		}
		c.bytes += rec.size()
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.log = openSegLog(dir, "cache", last, 0)
	return c, nil
}

// Complete implements llm.Client. A hit is served from the store with
// zero billed tokens and CacheHit set; a miss consults the inner client
// and persists its response (with the real usage, so a later journal or
// audit can see what the answer originally cost).
func (c *Cache) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	key := llm.CacheKey(req)
	c.mu.Lock()
	if v, ok := c.entries[key]; ok {
		c.used++
		v.used = c.used
		c.hits++
		resp := v.resp
		c.mu.Unlock()
		resp.InputTokens = 0
		resp.OutputTokens = 0
		resp.CacheHit = true
		return resp, nil
	}
	c.misses++
	c.mu.Unlock()

	resp, err := c.inner.Complete(ctx, req)
	if err != nil {
		return llm.Response{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		// Raced with another goroutine on the same request; the store
		// already has it.
		return resp, nil
	}
	rec := cacheRecord{
		Key:          key,
		Completion:   resp.Completion,
		InputTokens:  resp.InputTokens,
		OutputTokens: resp.OutputTokens,
	}
	if err := c.log.append(rec); err != nil {
		// Persistence failure must not lose a billed answer: return the
		// response, surface nothing. The entry still serves from memory.
		c.addEntry(key, resp, rec.size())
		return resp, nil
	}
	c.addEntry(key, resp, rec.size())
	if c.bytes > c.maxBytes {
		_ = c.compact()
	}
	return resp, nil
}

func (c *Cache) addEntry(key string, resp llm.Response, size int64) {
	c.used++
	resp.CacheHit = false
	c.entries[key] = &cacheVal{resp: resp, used: c.used, size: size}
	c.bytes += size
}

// compact rewrites the most recently used entries into a fresh segment
// until ~80% of the byte budget is used, then deletes the old segments,
// evicting everything that did not fit. Called with c.mu held.
func (c *Cache) compact() error {
	type kv struct {
		key string
		val *cacheVal
	}
	all := make([]kv, 0, len(c.entries))
	for k, v := range c.entries {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].val.used > all[j].val.used })

	// Keep the most-recent prefix that fits ~80% of the budget (always at
	// least one entry, so a single oversized response cannot wedge the
	// cache into evicting everything).
	budget := c.maxBytes * 8 / 10
	cut := len(all)
	var kept int64
	for i, e := range all {
		if i > 0 && kept+e.val.size > budget {
			cut = i
			break
		}
		kept += e.val.size
	}
	keep, evict := all[:cut], all[cut:]

	// Write survivors to the next segment, fsync, then drop old segments.
	// Until that fsync the survivors are durable in the old segments, so
	// the rewrite is a copy and holds the batched flushes: it needs the
	// one sync below, before the first delete, and no other.
	oldNames, _, err := listSegments(c.dir, "cache")
	if err != nil {
		return err
	}
	if err := c.log.rotate(); err != nil {
		return err
	}
	c.log.hold = true
	defer func() { c.log.hold = false }()
	// Oldest first: reload stamps recency in read order, so writing in
	// ascending use order makes a reopened cache's LRU ranking match the
	// one that produced the segment (instead of inverting it and letting
	// the next compaction evict the hottest entries).
	for i := len(keep) - 1; i >= 0; i-- {
		e := keep[i]
		err := c.log.append(cacheRecord{
			Key:          e.key,
			Completion:   e.val.resp.Completion,
			InputTokens:  e.val.resp.InputTokens,
			OutputTokens: e.val.resp.OutputTokens,
		})
		if err != nil {
			return err
		}
	}
	if err := c.log.sync(); err != nil {
		return err
	}
	current := segName("cache", c.log.seg)
	for _, name := range oldNames {
		if name == current {
			continue
		}
		if err := os.Remove(filepath.Join(c.dir, name)); err != nil {
			return err
		}
	}
	for _, e := range evict {
		c.bytes -= e.val.size
		delete(c.entries, e.key)
	}
	return nil
}

// Stats returns hit and miss counts since open.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached responses currently held.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Sync forces buffered entries to durable storage immediately.
func (c *Cache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.sync()
}

// Close flushes, fsyncs, and closes the store. The Cache must not be
// used afterwards.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.close()
}
