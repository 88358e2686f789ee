package service

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
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

// memo is a string-keyed LRU of computed values that computes each
// value once across concurrent callers: a caller that misses while the
// key's computation is in flight waits for it instead of starting
// another. It serves the result cache (solved results) and the server's
// workload-profile memo (profiled graphs).
type memo[V any] struct {
	mu       sync.Mutex
	values   lru[V]
	inflight map[string]*flight[V] // key → computation in progress
}

// flight is one in-progress computation other callers can wait on.
type flight[V any] struct {
	done    chan struct{}
	val     V
	err     error
	waiters int // callers that joined the computing one; guarded by the memo's mutex
}

func newMemo[V any](capacity int) *memo[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &memo[V]{values: newLRU[V](capacity), inflight: make(map[string]*flight[V])}
}

// get returns the value stored under key, refreshing its recency.
func (m *memo[V]) get(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.values.get(key)
}

// add stores v under key, evicting the least recently used value past
// capacity.
func (m *memo[V]) add(key string, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.values.add(key, v)
}

// len returns the number of stored values.
func (m *memo[V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.values.len()
}

// do returns the value stored under key or, on a miss, the value of the
// key's computation: a caller that finds one in flight waits for it, and
// otherwise runs compute itself. The computing caller stores a value
// before its waiters wake, so a call arriving after completion finds it
// stored. A failed computation hands its error to its waiters and stores
// nothing, so the next call computes again. A waiter whose ctx ends
// first gets ctx's error and nothing shared, while the computation runs
// on for the others. shared reports whether the value came from the
// store or another caller's computation rather than this caller's own.
func (m *memo[V]) do(ctx context.Context, key string, compute func() (V, error)) (v V, shared bool, err error) {
	m.mu.Lock()
	if v, ok := m.values.get(key); ok {
		m.mu.Unlock()
		return v, true, nil
	}
	if f, ok := m.inflight[key]; ok {
		f.waiters++
		m.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			// Nothing was shared: a timed-out waiter must count as a
			// timeout upstream, not a dedup.
			return v, false, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	m.inflight[key] = f
	m.mu.Unlock()

	f.val, f.err = compute()
	m.mu.Lock()
	if f.err == nil {
		m.values.add(key, f.val)
	}
	delete(m.inflight, key)
	m.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// resultCache is a fingerprint-keyed memo of solved mapping results:
// concurrent requests for the same fingerprint collapse onto one solve,
// and completed solves are retained up to a capacity bound. Keys embed
// the snapshot version (see fingerprint.go), so a snapshot swap makes
// old entries unreachable and ordinary LRU pressure evicts them — no
// flush path, no invalidation races.
//
// An entry keeps its result as the bytes every answer is served from,
// and the request that produced it with its edge list packed (see
// newCacheEntry), never the handler's pooled edge list: the re-gauging
// loop walks the cache after a snapshot publication and rebuilds each
// entry's problem against the new model to decide whether the placement
// is worth migrating.
type resultCache struct {
	entries *memo[cacheEntry]
}

type cacheEntry struct {
	req  *MapRequest // a copy of the request, its edge list packed
	body []byte
}

// newCacheEntry encodes res once, for every answer that will serve it:
// its body is json.Marshal(res) without the closing brace, which each
// answer writes after its own flags (see writeResult). A result that
// json.Marshal cannot encode, such as one with a non-finite cost, is an
// error, so it is neither cached nor answered as a 200. The entry keeps
// a copy of req whose edge list is packed into one exact-size byte
// string (packEdges), 39% of the list's size on the served shape; its
// constraint and allowed sets are the request's own.
func newCacheEntry(req *MapRequest, res *MapResult) (cacheEntry, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return cacheEntry{}, fmt.Errorf("encoding result: %w", err)
	}
	r := *req
	r.Edges, r.packedEdges = nil, packEdges(req.Edges)
	return cacheEntry{req: &r, body: b[:len(b)-1]}, nil
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{entries: newMemo[cacheEntry](capacity)}
}

// get returns the cached result bytes for key, refreshing its recency.
func (c *resultCache) get(key string) ([]byte, bool) {
	e, ok := c.entries.get(key)
	return e.body, ok
}

// add inserts a result, evicting the least-recently-used entry past
// capacity. A result newCacheEntry cannot encode is not inserted.
func (c *resultCache) add(key string, req *MapRequest, res *MapResult) error {
	e, err := newCacheEntry(req, res)
	if err != nil {
		return err
	}
	c.entries.add(key, e)
	return nil
}

// len returns the number of cached results.
func (c *resultCache) len() int { return c.entries.len() }

// CachedPlacement is one cached (request, result) pair, exposed to the
// re-gauging loop so it can re-evaluate live placements against a freshly
// published snapshot. Request is the cache's own and read-only: an
// explicit edge list stays packed in it, its Edges nil, until Problem or
// Server.InsertResult reads it.
type CachedPlacement struct {
	Key     string
	Request *MapRequest
	Result  *MapResult
}

// walk returns a point-in-time copy of the cache contents in recency
// order (most recent first), each result decoded afresh from its entry's
// bytes, each request the entry's own: an explicit edge list stays
// packed until something reads it (see MapRequest.withEdges). The list
// order — not the entries map — is walked, so the result is
// deterministic for a deterministic request history.
func (c *resultCache) walk() []CachedPlacement {
	m := c.entries
	m.mu.Lock()
	entries := make([]lruEntry[cacheEntry], 0, m.values.len())
	for el := m.values.order.Front(); el != nil; el = el.Next() {
		entries = append(entries, *el.Value.(*lruEntry[cacheEntry]))
	}
	m.mu.Unlock()
	out := make([]CachedPlacement, 0, len(entries))
	for _, e := range entries {
		res, err := decodeResult(e.val.body)
		if err != nil {
			// Unreachable: json.Marshal wrote these bytes. The
			// re-gauging loop would skip a nil Result all the same.
			continue
		}
		out = append(out, CachedPlacement{Key: e.key, Request: e.val.req, Result: res})
	}
	return out
}

// do runs solve for key exactly once across concurrent callers (see
// memo.do) and returns the result's bytes. The leader encodes a
// successful result (newCacheEntry) before it is stored; an encoding
// error, like a solve error, is not cached.
func (c *resultCache) do(ctx context.Context, key string, req *MapRequest, solve func() (*MapResult, error)) (body []byte, shared bool, err error) {
	e, shared, err := c.entries.do(ctx, key, func() (cacheEntry, error) {
		res, err := solve()
		if err != nil {
			return cacheEntry{}, err
		}
		return newCacheEntry(req, res)
	})
	return e.body, shared, err
}
