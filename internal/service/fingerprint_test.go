package service

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"geoprocmap/internal/comm"
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

// randomEdges draws count edges over procs processes, half of them from a
// small pool of pairs so that runs of one to many edges share a pair, with
// volumes from a handful of magnitudes so that equal bits and sums that
// depend on their order both occur.
func randomEdges(rng *rand.Rand, procs, count int) []Edge {
	pool := make([]Edge, 1+rng.Intn(procs))
	for k := range pool {
		pool[k] = Edge{Src: rng.Intn(procs), Dst: rng.Intn(procs)}
	}
	edges := make([]Edge, count)
	for k := range edges {
		e := Edge{Src: rng.Intn(procs), Dst: rng.Intn(procs)}
		if rng.Intn(2) == 0 {
			e = pool[rng.Intn(len(pool))]
		}
		e.Volume = float64(1+rng.Intn(3)) * math.Pow(10, float64(rng.Intn(17)))
		e.Msgs = float64(rng.Intn(3))
		edges[k] = e
	}
	return edges
}

// Property: the counting passes order every request keyOrder hands them
// exactly as the stable comparison sort does, so both paths hash the same
// bytes; and a request with an endpoint out of range, or with procs far
// above its edge count, takes the comparison sort and still keys.
func TestKeyOrderCountingMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		procs := 1 + rng.Intn(300)
		r := MapRequest{Procs: procs, Edges: randomEdges(rng, procs, (procs+countingSlack-1)/countingSlack+rng.Intn(4*procs))}
		switch trial % 4 {
		case 0: // an endpoint out of range
			e := &r.Edges[rng.Intn(len(r.Edges))]
			if rng.Intn(2) == 0 {
				e.Src = -1 - rng.Intn(3)
			} else {
				e.Dst = procs + rng.Intn(3)
			}
		case 1: // procs far above the edge count
			r.Procs = countingSlack*len(r.Edges) + 1 + rng.Intn(1<<20)
		}
		if got, want := countable(r.Edges, r.Procs), trial%4 > 1; got != want {
			t.Fatalf("trial %d: countable = %v, want %v", trial, got, want)
		}
		if !countable(r.Edges, r.Procs) {
			_ = RoutingKey(&r)
			continue
		}
		if got, want := new(keyScratch).countingOrder(r.Edges, r.Procs), new(keyScratch).comparisonOrder(r.Edges); !slices.Equal(got, want) {
			t.Fatalf("trial %d: counting order %v, comparison order %v", trial, got, want)
		}
	}
}

// keyRuns is a reference for what the key hashes of an edge list: each
// (src, dst) pair's edges in request order, with a run of at most two put
// in compareEdges order.
func keyRuns(edges []Edge) map[[2]int][]Edge {
	runs := map[[2]int][]Edge{}
	for _, e := range edges {
		runs[[2]int{e.Src, e.Dst}] = append(runs[[2]int{e.Src, e.Dst}], e)
	}
	for _, run := range runs {
		if len(run) <= 2 {
			slices.SortFunc(run, compareEdges)
		}
	}
	return runs
}

// Property: two orders of one edge list key alike exactly when keyRuns
// says they should, and lists that key alike build bit-identical graphs
// through Problem, which adds the edges in request order.
func TestEqualKeysBuildEqualGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	snap := testSnapshot(t, 16, 1)
	sameBits := func(x, y comm.Edge) bool {
		return x.Peer == y.Peer && math.Float64bits(x.Volume) == math.Float64bits(y.Volume) && math.Float64bits(x.Msgs) == math.Float64bits(y.Msgs)
	}
	sameCSR := func(x, y *comm.CSR) bool {
		return slices.Equal(x.OutIdx, y.OutIdx) && slices.EqualFunc(x.Out, y.Out, sameBits) &&
			slices.Equal(x.InIdx, y.InIdx) && slices.EqualFunc(x.In, y.In, sameBits)
	}
	csr := func(r *MapRequest) *comm.CSR {
		p, err := r.Problem(snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p.Comm.CSR()
	}
	for trial := 0; trial < 3000; trial++ {
		procs := 2 + rng.Intn(3)
		a := MapRequest{Procs: procs, Edges: randomEdges(rng, procs, 1+rng.Intn(8))}
		if trial%3 == 0 { // an edge with no traffic, which the graph drops
			e := &a.Edges[rng.Intn(len(a.Edges))]
			e.Volume, e.Msgs = 0, 0
		}
		b := MapRequest{Procs: procs, Edges: slices.Clone(a.Edges)}
		rng.Shuffle(len(b.Edges), func(i, j int) { b.Edges[i], b.Edges[j] = b.Edges[j], b.Edges[i] })
		same := maps.EqualFunc(keyRuns(a.Edges), keyRuns(b.Edges), slices.Equal[[]Edge])
		if alike := fingerprint(&a, 1) == fingerprint(&b, 1); alike != same {
			t.Fatalf("trial %d: edges %v and %v key alike: %v, want %v", trial, a.Edges, b.Edges, alike, same)
		}
		if ga, gb := csr(&a), csr(&b); same && !sameCSR(ga, gb) {
			t.Fatalf("trial %d: edges %v and %v key alike but build different graphs %+v and %+v", trial, a.Edges, b.Edges, *ga, *gb)
		}
	}
}

// An edge list the graph cannot hold is an error of Problem, not a
// panic: an endpoint out of range, negative traffic or NaN traffic.
func TestProblemRejectsBadEdges(t *testing.T) {
	snap := testSnapshot(t, 16, 1)
	for _, bad := range []Edge{
		{Src: -1, Dst: 0, Volume: 1},
		{Src: 0, Dst: 3, Volume: 1},
		{Src: 0, Dst: 1, Volume: -1},
		{Src: 0, Dst: 1, Volume: math.NaN()},
		{Src: 1, Dst: 1, Volume: 1, Msgs: math.NaN()},
	} {
		r := MapRequest{Procs: 3, Edges: []Edge{{Src: 0, Dst: 1, Volume: 1, Msgs: 1}, bad}}
		if _, err := r.Problem(snap, nil); err == nil {
			t.Errorf("Problem accepted the edge %+v", bad)
		}
	}
}
