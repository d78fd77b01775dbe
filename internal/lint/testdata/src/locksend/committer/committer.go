// Package committer is a locksend fixture for the ordered-committer
// pattern the pipelined window executor uses: a producer hands units
// of work to runner goroutines and a single committer applies their
// results in order. The liveness rule under test: the committer may
// never publish a result on a channel while holding the state mutex,
// because the consumer it would block on may need that same mutex to
// make progress.
package committer

import "sync"

// result is one window's committed outcome.
type result struct {
	index int
	preds []int
}

// committer serializes result application in window order.
type committer struct {
	mu      sync.Mutex
	next    int
	pending map[int]result
}

// commitLocked publishes each in-order result while still inside the
// critical section: if the subscriber is slow, every producer calling
// into the committer stalls behind the held lock.
func (c *committer) commitLocked(out chan<- result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		r, ok := c.pending[c.next]
		if !ok {
			return
		}
		delete(c.pending, c.next)
		c.next++
		out <- r // want `channel send while holding c\.mu`
	}
}

// commit copies the ready prefix out under the lock and publishes it
// after Unlock — the sanctioned shape: the critical section touches
// only the ordering state, never a consumer's schedule.
func (c *committer) commit(out chan<- result) {
	c.mu.Lock()
	var ready []result
	for {
		r, ok := c.pending[c.next]
		if !ok {
			break
		}
		delete(c.pending, c.next)
		c.next++
		ready = append(ready, r)
	}
	c.mu.Unlock()
	for _, r := range ready {
		out <- r
	}
}

// offer records a runner's finished window for ordered commit; no
// sends, so holding the lock is fine.
func (c *committer) offer(r result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		c.pending = map[int]result{}
	}
	c.pending[r.index] = r
}
