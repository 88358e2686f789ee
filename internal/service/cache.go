package service

import (
	"container/list"
	"context"
	"sync"
)

// lru is a string-keyed map that evicts its least recently used entry
// past capacity. It does no locking: its owner's mutex guards it.
type lru[V any] struct {
	capacity int
	order    *list.List               // front = most recent
	entries  map[string]*list.Element // key → element whose Value is *lruEntry[V]
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) lru[V] {
	return lru[V]{capacity: capacity, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the value for key, refreshing its recency.
func (c *lru[V]) get(key string) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add stores v under key as the most recent entry, evicting the least
// recently used one past capacity.
func (c *lru[V]) add(key string, v V) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = v
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: v})
	for c.order.Len() > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*lruEntry[V]).key)
	}
}

func (c *lru[V]) len() int { return c.order.Len() }

// resultCache is a fingerprint-keyed LRU of solved mapping results with
// singleflight deduplication: concurrent requests for the same
// fingerprint collapse onto one solve, and completed solves are retained
// up to a capacity bound. Keys embed the snapshot version (see
// fingerprint.go), so a snapshot swap makes old entries unreachable and
// ordinary LRU pressure evicts them — no flush path, no invalidation
// races.
//
// Each entry retains the request that produced it: the re-gauging loop
// walks the cache after a snapshot publication and rebuilds each entry's
// problem against the new model to decide whether the placement is worth
// migrating.
type resultCache struct {
	mu       sync.Mutex
	results  lru[cacheEntry]    // fingerprint → solved result
	inflight map[string]*flight // fingerprint → in-progress solve
}

type cacheEntry struct {
	req *MapRequest
	res *MapResult
}

// flight is one in-progress solve other requests can wait on.
type flight struct {
	done chan struct{}
	res  *MapResult
	err  error
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{results: newLRU[cacheEntry](capacity), inflight: make(map[string]*flight)}
}

// get returns the cached result for key, refreshing its recency.
func (c *resultCache) get(key string) (*MapResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.results.get(key)
	return e.res, ok
}

// add inserts a result, evicting the least-recently-used entry past
// capacity.
func (c *resultCache) add(key string, req *MapRequest, res *MapResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results.add(key, cacheEntry{req: req, res: res})
}

// len returns the number of cached results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results.len()
}

// CachedPlacement is one cached (request, result) pair, exposed to the
// re-gauging loop so it can re-evaluate live placements against a freshly
// published snapshot.
type CachedPlacement struct {
	Key     string
	Request *MapRequest
	Result  *MapResult
}

// walk returns a point-in-time copy of the cache contents in recency
// order (most recent first). The list order — not the entries map — is
// walked, so the result is deterministic for a deterministic request
// history.
func (c *resultCache) walk() []CachedPlacement {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CachedPlacement, 0, c.results.len())
	for el := c.results.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry[cacheEntry])
		out = append(out, CachedPlacement{Key: e.key, Request: e.val.req, Result: e.val.res})
	}
	return out
}

// do runs solve for key exactly once across concurrent callers: the
// first caller executes it, later callers receive the same result once
// it completes — or their own ctx error if their deadline fires first
// (the leader's solve keeps running for the callers still waiting). A
// cached result short-circuits before any flight is created. The boolean
// reports whether this caller shared another caller's solve
// (deduplicated) rather than executing its own.
//
// Successful results are added to the LRU before the flight resolves, so
// a request arriving after completion hits the cache directly. Errors
// are not cached: the next request retries.
func (c *resultCache) do(ctx context.Context, key string, req *MapRequest, solve func() (*MapResult, error)) (res *MapResult, shared bool, err error) {
	c.mu.Lock()
	if e, ok := c.results.get(key); ok {
		c.mu.Unlock()
		return e.res, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.res, true, f.err
		case <-ctx.Done():
			// The waiter's own deadline fired before the leader finished:
			// nothing was shared. Reporting shared=true here would
			// misclassify the outcome upstream — a timed-out waiter must
			// count as a timeout, not a dedup.
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.res, f.err = solve()
	if f.err == nil {
		c.add(key, req, f.res)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.res, false, f.err
}
