package service

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"strconv"
	"sync"

	"geoprocmap/internal/core"
)

// fingerprint computes the canonical cache key of a request solved
// against a snapshot version. Everything that can change the placement
// participates: the communication pattern (preset name or the edge list
// in keyOrder), pins, allowed sets, solver choice and seed, and the
// snapshot version itself. Two requests with the same fingerprint are
// guaranteed to produce bit-identical results, which is what lets the
// cache and the singleflight layer return one request's answer to
// another.
//
//geolint:deterministic
func fingerprint(r *MapRequest, snapshotVersion uint64) string {
	h := newKeyHash()
	h.u64(snapshotVersion)
	h.str(r.Algorithm)
	h.u64(uint64(r.Kappa))
	h.u64(uint64(r.Seed))
	h.u64(uint64(r.Procs))
	h.u64(uint64(r.iters()))
	h.str(r.Workload)
	if len(r.Edges) > 0 {
		h.u64(uint64(len(r.Edges)))
		ks := keyScratchPool.Get().(*keyScratch)
		for _, k := range ks.keyOrder(r.Edges, r.Procs) {
			e := r.Edges[k]
			h.u64(uint64(e.Src))
			h.u64(uint64(e.Dst))
			h.u64(math.Float64bits(e.Volume))
			h.u64(math.Float64bits(e.Msgs))
		}
		ks.release()
	}
	// An all-Unconstrained vector fingerprints identically to an absent
	// one, matching how the problem is built.
	pinned := false
	for _, c := range r.Constraint {
		if c != core.Unconstrained {
			pinned = true
			break
		}
	}
	if pinned {
		h.u64(uint64(len(r.Constraint)))
		for _, c := range r.Constraint {
			h.u64(uint64(int64(c)))
		}
	}
	if len(r.Allowed) > 0 {
		h.u64(uint64(len(r.Allowed)))
		for _, set := range r.Allowed {
			h.u64(uint64(len(set)))
			for _, s := range set {
				h.u64(uint64(s))
			}
		}
	}
	return h.hex()
}

// keyScratch holds keyOrder's index arrays: the counting passes' count
// and byDst, and the order either sort returns. fingerprint takes one
// from keyScratchPool and hands it back once the edges are hashed. Each
// array is resized to what the request needs and then fully written
// (count is cleared before each pass), so nothing of one request's order
// reaches another's.
type keyScratch struct {
	count, byDst, order []int
}

// keyScratchPool recycles keyScratch, so keying an edge list allocates no
// index array.
var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// maxPooledKeyScratch caps a pooled keyScratch's arrays at 1 MB, the
// scratch of ~55,000 edges at three per process. A larger one is left
// to the collector.
const maxPooledKeyScratch = 1 << 20

// release returns s to keyScratchPool unless its arrays exceed
// maxPooledKeyScratch bytes.
func (s *keyScratch) release() {
	const intBytes = 8
	if (cap(s.count)+cap(s.byDst)+cap(s.order))*intBytes > maxPooledKeyScratch {
		return
	}
	keyScratchPool.Put(s)
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are stale: the caller writes or clears them.
func resize(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// keyOrder returns the order in which the key hashes edges, as indices
// into edges, held in s until s is reused: sorted by (Src, Dst), and
// within one (Src, Dst) run by the order comm.Graph sums it in, so that
// equal keys mean bit-identical graphs. The graph sums a pair's edges in
// request order. Two addends sum to the same value in either order, so
// a run of at most two edges is put in compareEdges order and keys the
// same however the request lists it. A longer run keeps request order:
// (1e16 + 1) + 1 and (1 + 1) + 1e16 are different sums.
//
// When every endpoint lies in [0, procs), as validate ensures, and procs
// is at most countingSlack times the edge count, the order comes from
// two stable counting passes, by Dst and then by Src, in
// O(len(edges) + procs). Otherwise a stable comparison sort gives the
// same order: RoutingKey also keys unvalidated requests, and a short
// list over many processes should not pay O(procs).
func (s *keyScratch) keyOrder(edges []Edge, procs int) []int {
	var order []int
	if countable(edges, procs) {
		order = s.countingOrder(edges, procs)
	} else {
		order = s.comparisonOrder(edges)
	}
	for lo, hi := 0, 0; lo < len(order); lo = hi {
		for hi = lo + 1; hi < len(order) && compareEndpoints(edges[order[lo]], edges[order[hi]]) == 0; hi++ {
		}
		if hi-lo == 2 && compareEdges(edges[order[lo]], edges[order[lo+1]]) > 0 {
			order[lo], order[lo+1] = order[lo+1], order[lo]
		}
	}
	return order
}

// countingOrder returns the indices of edges stably sorted by (Src, Dst):
// a stable counting pass by Dst, then one by Src. Every endpoint lies in
// [0, procs).
func (s *keyScratch) countingOrder(edges []Edge, procs int) []int {
	s.count = resize(s.count, procs+1)
	s.byDst = resize(s.byDst, len(edges))
	s.order = resize(s.order, len(edges))
	count, byDst, order := s.count, s.byDst, s.order
	clear(count)
	for _, e := range edges {
		count[e.Dst+1]++
	}
	for i := 1; i < procs; i++ {
		count[i+1] += count[i]
	}
	for k, e := range edges {
		byDst[count[e.Dst]] = k
		count[e.Dst]++
	}
	clear(count)
	for _, e := range edges {
		count[e.Src+1]++
	}
	for i := 1; i < procs; i++ {
		count[i+1] += count[i]
	}
	for _, k := range byDst {
		src := edges[k].Src
		order[count[src]] = k
		count[src]++
	}
	return order
}

// comparisonOrder returns the indices of edges stably sorted by
// (Src, Dst) with a comparison sort, for any endpoints.
func (s *keyScratch) comparisonOrder(edges []Edge) []int {
	s.order = resize(s.order, len(edges))
	order := s.order
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return compareEndpoints(edges[a], edges[b]) })
	return order
}

// countingSlack bounds the count array of keyOrder's counting passes
// relative to the edge list: a request with procs above countingSlack
// times its edge count is sorted by comparison instead.
const countingSlack = 4

// countable reports whether keyOrder may sort edges by counting: every
// endpoint lies in [0, procs), and procs is at most countingSlack times
// the edge count.
func countable(edges []Edge, procs int) bool {
	if procs > countingSlack*len(edges) {
		return false
	}
	for _, e := range edges {
		if uint(e.Src) >= uint(procs) || uint(e.Dst) >= uint(procs) {
			return false
		}
	}
	return true
}

// compareEndpoints orders edges by (Src, Dst).
func compareEndpoints(a, b Edge) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// compareEdges orders edges by (Src, Dst, Volume bits, Msgs bits): a
// total order.
func compareEdges(a, b Edge) int {
	if c := compareEndpoints(a, b); c != 0 {
		return c
	}
	if c := cmp.Compare(math.Float64bits(a.Volume), math.Float64bits(b.Volume)); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(a.Msgs), math.Float64bits(b.Msgs))
}

// routingVersion is the snapshot-version sentinel RoutingKey hashes in
// place of a real version. Store versions start at 1 and only ever
// increase, so routing keys can never collide with cache keys.
const routingVersion = ^uint64(0)

// RoutingKey is the cluster routing key of a request: its fingerprint
// independent of any snapshot version. Shard ownership must not change
// when a snapshot is published (that would migrate every cache entry),
// and clients cannot know the fleet's current version — so routing
// hashes the request alone while cache keys keep embedding the version.
//
//geolint:deterministic
func RoutingKey(r *MapRequest) string { return fingerprint(r, routingVersion) }

// PlacementDigest is the canonical SHA-256 of a placement vector — the
// digest carried in MapResult.Digest. Exported so the re-gauging loop
// (and the offline replay scenario) can stamp remapped results with the
// same digest clients already compare.
func PlacementDigest(pl core.Placement) string { return placementDigest(pl) }

// CombinedDigest folds the placement digests of a request stream into
// one SHA-256, in request order: answered request i contributes the line
// "i:digest". Empty entries (requests that got no placement) are skipped
// but keep their index. The fold never sees arrival order, so two runs
// of one seeded stream against equivalent servers, at any fleet size,
// must produce the same value.
//
//geolint:deterministic
func CombinedDigest(digests []string) string {
	var b []byte
	for i, d := range digests {
		if d == "" {
			continue
		}
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ':')
		b = append(b, d...)
		b = append(b, '\n')
	}
	return hashHex(b)
}

// placementDigest is the canonical SHA-256 of a placement vector,
// exposed in responses so clients can assert determinism cheaply.
//
//geolint:deterministic
func placementDigest(pl core.Placement) string {
	h := newKeyHash()
	for _, s := range pl {
		h.u64(uint64(int64(s)))
	}
	return h.hex()
}

// hashHex is the hex SHA-256 of b, the form every digest and key takes.
func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// keyHash streams the bytes of a key or digest into SHA-256 through a
// fixed-size buffer, so that hashing a request costs no buffer in
// proportion to its edges: the hash is that of the bytes written, in
// order, as if they had been appended to one slice.
type keyHash struct {
	h   hash.Hash
	buf [512]byte
	n   int
}

func newKeyHash() *keyHash { return &keyHash{h: sha256.New()} }

// u64 writes v as 8 little-endian bytes.
func (k *keyHash) u64(v uint64) {
	if k.n+8 > len(k.buf) {
		k.flush()
	}
	binary.LittleEndian.PutUint64(k.buf[k.n:], v)
	k.n += 8
}

// str writes len(s) as a u64, then the bytes of s.
func (k *keyHash) str(s string) {
	k.u64(uint64(len(s)))
	for len(s) > 0 {
		if k.n == len(k.buf) {
			k.flush()
		}
		c := copy(k.buf[k.n:], s)
		k.n += c
		s = s[c:]
	}
}

func (k *keyHash) flush() {
	_, _ = k.h.Write(k.buf[:k.n]) // a hash.Hash never returns an error
	k.n = 0
}

// hex returns the hex SHA-256 of everything written, as hashHex does.
func (k *keyHash) hex() string {
	k.flush()
	var sum [sha256.Size]byte
	return hex.EncodeToString(k.h.Sum(sum[:0]))
}
