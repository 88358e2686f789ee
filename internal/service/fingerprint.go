package service

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

	"geoprocmap/internal/core"
)

// fingerprint computes the canonical cache key of a request solved
// against a snapshot version. Everything that can change the placement
// participates: the communication pattern (preset name or sorted edge
// list), pins, allowed sets, solver choice and seed, and the snapshot
// version itself. Two requests with the same fingerprint are guaranteed
// to produce bit-identical results, which is what lets the cache and the
// singleflight layer return one request's answer to another.
//
//geolint:deterministic
func fingerprint(r *MapRequest, snapshotVersion uint64) string {
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
		// Sorting by the whole edge makes the key independent of edge
		// order even when two edges share a (src, dst) pair.
		edges := slices.Clone(r.Edges)
		slices.SortFunc(edges, compareEdges)
		b = appendU64(b, uint64(len(edges)))
		for _, e := range edges {
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
	return hashHex(b)
}

// compareEdges orders edges by (Src, Dst, Volume bits, Msgs bits): a
// total order, so equal multisets of edges sort to equal lists.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
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
