package service

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strconv"

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
	key, _ := cacheKey(r, snapshotVersion)
	return key
}

// cacheKey is fingerprint that also returns the key order of the
// request's edges (nil without edges), so that a cache miss builds its
// graph in that order without sorting again.
//
//geolint:deterministic
func cacheKey(r *MapRequest, snapshotVersion uint64) (key string, order []int) {
	// Room for every field when each allowed set holds one site.
	b := make([]byte, 0, 64+len(r.Algorithm)+len(r.Workload)+32*len(r.Edges)+8*len(r.Constraint)+16*len(r.Allowed))
	b = appendU64(b, snapshotVersion)
	b = appendStr(b, r.Algorithm)
	b = appendU64(b, uint64(r.Kappa))
	b = appendU64(b, uint64(r.Seed))
	b = appendU64(b, uint64(r.Procs))
	b = appendU64(b, uint64(r.iters()))
	b = appendStr(b, r.Workload)
	if len(r.Edges) > 0 {
		b = appendU64(b, uint64(len(r.Edges)))
		order = keyOrder(r.Edges, r.Procs)
		for _, k := range order {
			e := r.Edges[k]
			b = appendU64(b, uint64(e.Src))
			b = appendU64(b, uint64(e.Dst))
			b = appendU64(b, math.Float64bits(e.Volume))
			b = appendU64(b, math.Float64bits(e.Msgs))
		}
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
		b = appendU64(b, uint64(len(r.Constraint)))
		for _, c := range r.Constraint {
			b = appendU64(b, uint64(int64(c)))
		}
	}
	if len(r.Allowed) > 0 {
		b = appendU64(b, uint64(len(r.Allowed)))
		for _, set := range r.Allowed {
			b = appendU64(b, uint64(len(set)))
			for _, s := range set {
				b = appendU64(b, uint64(s))
			}
		}
	}
	return hashHex(b), order
}

// keyOrder returns the order in which the key hashes edges, as indices
// into edges: sorted by (Src, Dst), and within one (Src, Dst) run by the
// order comm.Graph sums it in, so that equal keys mean bit-identical
// graphs. The graph sums a pair's edges in request order. Two addends
// sum to the same value in either order, so a run of at most two edges
// is put in compareEdges order and keys the same however the request
// lists it. A longer run keeps request order: (1e16 + 1) + 1 and
// (1 + 1) + 1e16 are different sums.
//
// When every endpoint lies in [0, procs), as validate ensures, and procs
// is at most countingSlack times the edge count, the order comes from
// two stable counting passes, by Dst and then by Src, in
// O(len(edges) + procs). Otherwise a stable comparison sort gives the
// same order: RoutingKey also keys unvalidated requests, and a short
// list over many processes should not pay O(procs).
func keyOrder(edges []Edge, procs int) []int {
	var order []int
	if countable(edges, procs) {
		order = countingOrder(edges, procs)
	} else {
		order = comparisonOrder(edges)
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
func countingOrder(edges []Edge, procs int) []int {
	count := make([]int, procs+1)
	byDst := make([]int, len(edges))
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
	order := make([]int, len(edges))
	for _, k := range byDst {
		src := edges[k].Src
		order[count[src]] = k
		count[src]++
	}
	return order
}

// comparisonOrder returns the indices of edges stably sorted by
// (Src, Dst) with a comparison sort, for any endpoints.
func comparisonOrder(edges []Edge) []int {
	order := make([]int, len(edges))
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
	b := make([]byte, 0, 8*len(pl))
	for _, s := range pl {
		b = appendU64(b, uint64(int64(s)))
	}
	return hashHex(b)
}

// hashHex is the hex SHA-256 of b, the form every digest and key takes.
func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte { return append(appendU64(b, uint64(len(s))), s...) }
