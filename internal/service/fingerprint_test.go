package service

import (
	"testing"

	"geoprocmap/internal/core"
)

// TestDigestsGolden pins the client-visible digests across commits: the
// placement digest every map response carries, and the cache and routing
// keys of fixed requests. A request that repeats no (src, dst) pair keys
// the same under any edge-sort order, so these values must never move.
func TestDigestsGolden(t *testing.T) {
	pl := make(core.Placement, 16)
	for i := range pl {
		pl[i] = i * 7 % 4
	}
	edges := MapRequest{
		Procs: 6,
		Edges: []Edge{
			{Src: 4, Dst: 5, Volume: 2.5e6, Msgs: 20},
			{Src: 0, Dst: 1, Volume: 1e6, Msgs: 10},
			{Src: 1, Dst: 0, Volume: 0.1, Msgs: 1},
			{Src: 0, Dst: 3, Volume: 3456789.123456789, Msgs: 8},
		},
		Constraint: []int{2, -1, -1, -1, -1, 0},
		Allowed:    [][]int{{2}, {1, 2}, {}, {0, 1, 2, 3}, {}, {0}},
		Algorithm:  "multilevel",
		Kappa:      3,
		Seed:       -42,
	}
	preset := MapRequest{Workload: "LU", Procs: 64, Iters: 3, Seed: 1}
	for _, c := range []struct{ name, got, want string }{
		{"PlacementDigest", PlacementDigest(pl), "b680fe54b3c8fcdd370b9c0f6e6c8c6b6fe5b77aac99f08a6309a5b6b0deaa13"},
		{"fingerprint(edges, 7)", fingerprint(&edges, 7), "e9afe9b91c61eb49114d679646683402616f3e78bd6c23d0921e230954f49eeb"},
		{"RoutingKey(edges)", RoutingKey(&edges), "b74ce2bcb11d5ba42eb84c632472a9f19e9eb44adce2dd1753deb165ab83e825"},
		{"fingerprint(preset, 1)", fingerprint(&preset, 1), "f31680af4b3e8569ffde627f6bb1453f070637990d3a4af7b9422de936c5662a"},
		{"RoutingKey(preset)", RoutingKey(&preset), "4d4af67420a909610a9f84dd7680bf2f70bf2408703050161b22c7a99a148d05"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}
