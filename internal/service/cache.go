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

// resultCache is a fingerprint-keyed LRU of solved mapping results with
// singleflight deduplication: concurrent requests for the same
// fingerprint collapse onto one solve, and completed solves are retained
// up to a capacity bound. Keys embed the snapshot version (see
// fingerprint.go), so a snapshot swap makes old entries unreachable and
// ordinary LRU pressure evicts them — no flush path, no invalidation
// races.
//
// An entry keeps its result as the bytes every answer is served from,
// and the request that produced it with its edge list packed (see
// newCacheEntry), never the handler's pooled edge list: the re-gauging
// loop walks the cache after a snapshot publication and rebuilds each
// entry's problem against the new model to decide whether the placement
// is worth migrating. Only that walk unpacks the edges.
type resultCache struct {
	mu       sync.Mutex
	results  lru[cacheEntry]            // fingerprint → solved result
	inflight map[string]*flight[[]byte] // fingerprint → in-progress solve
}

type cacheEntry struct {
	req   *MapRequest // a copy of the request without its Edges
	edges []byte      // packEdges of the request's Edges
	body  []byte
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
	r.Edges = nil
	return cacheEntry{req: &r, edges: packEdges(req.Edges), body: b[:len(b)-1]}, nil
}

// flight is one in-progress computation other callers can wait on: a
// result cache's solve (its value the result bytes), or a profile in the
// server's graph memo.
type flight[V any] struct {
	done    chan struct{}
	val     V
	err     error
	waiters int // callers that joined the leader; guarded by the owner's mutex
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{results: newLRU[cacheEntry](capacity), inflight: make(map[string]*flight[[]byte])}
}

// get returns the cached result bytes for key, refreshing its recency.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.results.get(key)
	return e.body, ok
}

// add inserts a result, evicting the least-recently-used entry past
// capacity. A result newCacheEntry cannot encode is not inserted.
func (c *resultCache) add(key string, req *MapRequest, res *MapResult) error {
	e, err := newCacheEntry(req, res)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results.add(key, e)
	return nil
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
// order (most recent first), each result decoded afresh from its entry's
// bytes and each explicit edge list unpacked into a request of its own;
// a preset request is the entry's own. The list order — not the entries
// map — is walked, so the result is deterministic for a deterministic
// request history.
func (c *resultCache) walk() []CachedPlacement {
	type keyed struct {
		key string
		cacheEntry
	}
	c.mu.Lock()
	entries := make([]keyed, 0, c.results.len())
	for el := c.results.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry[cacheEntry])
		entries = append(entries, keyed{e.key, e.val})
	}
	c.mu.Unlock()
	out := make([]CachedPlacement, 0, len(entries))
	for _, e := range entries {
		res, err := decodeResult(e.body)
		if err != nil {
			// Unreachable: json.Marshal wrote these bytes. The
			// re-gauging loop would skip a nil Result all the same.
			continue
		}
		req := e.req
		if e.edges != nil {
			r := *req
			r.Edges = unpackEdges(e.edges)
			req = &r
		}
		out = append(out, CachedPlacement{Key: e.key, Request: req, Result: res})
	}
	return out
}

// do runs solve for key exactly once across concurrent callers: the
// first caller executes it, later callers receive the same result bytes
// once it completes — or their own ctx error if their deadline fires
// first (the leader's solve keeps running for the callers still
// waiting). A cached result short-circuits before any flight is created.
// The boolean reports whether this caller shared another caller's solve
// (deduplicated) rather than executing its own.
//
// The leader encodes a successful result (newCacheEntry) and adds it to
// the LRU before the flight resolves, so a request arriving after
// completion hits the cache directly. Errors, an encoding error
// included, are not cached: the next request retries.
func (c *resultCache) do(ctx context.Context, key string, req *MapRequest, solve func() (*MapResult, error)) (body []byte, shared bool, err error) {
	c.mu.Lock()
	if e, ok := c.results.get(key); ok {
		c.mu.Unlock()
		return e.body, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		f.waiters++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			// The waiter's own deadline fired before the leader finished:
			// nothing was shared. Reporting shared=true here would
			// misclassify the outcome upstream — a timed-out waiter must
			// count as a timeout, not a dedup.
			return nil, false, ctx.Err()
		}
	}
	f := &flight[[]byte]{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	var e cacheEntry
	res, err := solve()
	if err == nil {
		e, err = newCacheEntry(req, res)
	}
	f.val, f.err = e.body, err
	c.mu.Lock()
	if err == nil {
		c.results.add(key, e)
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}
