package service

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/core"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
)

// mapperAlgorithms lists every name MapRequest.Mapper accepts.
var mapperAlgorithms = []string{"", "geo", "multilevel", "greedy", "mpipp", "random", "montecarlo"}

// Property: on 100 random small problems with pins and allowed-site sets,
// every mapper a request can name (montecarlo on every fourth), and
// HierarchicalGeoMapper, returns a placement that passes CheckPlacement,
// and GeoMapper returns the same placement at one, two and three
// order-search workers.
func TestMappersPlaceRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, 1+rng.Intn(32), 1+rng.Intn(8))
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: randomProblem built an invalid problem: %v", trial, err)
		}
		req := MapRequest{Kappa: rng.Intn(5), Seed: rng.Int63n(100)}
		name := fmt.Sprintf("trial %d (N=%d, M=%d, kappa=%d)", trial, p.N(), p.M(), req.Kappa)
		for _, algo := range mapperAlgorithms {
			if algo == "montecarlo" && trial%4 != 0 {
				// Its 10,000 samples are the draws "random" makes once
				// per trial; a quarter of the trials keeps the test short.
				continue
			}
			req.Algorithm = algo
			mapper, err := req.Mapper(1)
			if err != nil {
				t.Fatalf("%s: algorithm %q: %v", name, algo, err)
			}
			checkMapped(t, name, mapper, p)
		}
		// The hierarchical mapper splits into at least two groups per level.
		checkMapped(t, name, &core.HierarchicalGeoMapper{Kappa: []int{0, 2, 3}[rng.Intn(3)], Seed: req.Seed, LeafSites: 2 + rng.Intn(4), Workers: 1}, p)
		var first core.Placement
		for _, w := range []int{1, 2, 3} {
			pl, err := (&core.GeoMapper{Kappa: req.Kappa, Seed: req.Seed, Workers: w}).Map(p)
			if err != nil {
				t.Fatalf("%s: GeoMapper at %d workers: %v", name, w, err)
			}
			if first == nil {
				first = pl
			} else if !pl.Equal(first) {
				t.Fatalf("%s: GeoMapper at %d workers placed %v, at 1 worker %v", name, w, pl, first)
			}
		}
	}
}

// relabelTolerance bounds the relative difference between the costs of
// one placement before and after relabelling processes: the terms are
// the same, but CostParts sums them in another order.
const relabelTolerance = 1e-12

// Property: on 100 random small problems with pins and allowed-site
// sets, renaming the processes by a random permutation — in the graph,
// the constraint vector, the allowed sets and the placement together —
// changes neither cost term beyond relabelTolerance nor CheckPlacement's
// verdict, for a placement GeoMapper returns and for a random one.
func TestCostInvariantUnderRelabelling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= relabelTolerance*math.Max(math.Abs(a), math.Abs(b))
	}
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, 1+rng.Intn(32), 1+rng.Intn(8))
		n := p.N()
		perm := rng.Perm(n) // process i is renamed perm[i]
		g := comm.NewGraph(n)
		for i := 0; i < n; i++ {
			for _, e := range p.Comm.Outgoing(i) {
				g.AddTraffic(perm[i], perm[e.Peer], e.Volume, e.Msgs)
			}
		}
		q := *p
		q.Comm = g
		q.Constraint = mat.NewIntVec(n, core.Unconstrained)
		q.Allowed = make([][]int, n)
		for i := 0; i < n; i++ {
			q.Constraint[perm[i]] = p.Constraint[i]
			q.Allowed[perm[i]] = p.Allowed[i]
		}
		mapped, err := (&core.GeoMapper{Seed: int64(trial), Workers: 1}).Map(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		random := make(core.Placement, n)
		for i := range random {
			random[i] = rng.Intn(p.M())
		}
		for _, pl := range []core.Placement{mapped, random} {
			relabelled := make(core.Placement, n)
			for i, s := range pl {
				relabelled[perm[i]] = s
			}
			lat, bw := p.CostParts(pl)
			rlat, rbw := q.CostParts(relabelled)
			if !near(lat.Float(), rlat.Float()) || !near(bw.Float(), rbw.Float()) {
				t.Errorf("trial %d (N=%d, M=%d): cost terms %v + %v, relabelled %v + %v", trial, n, p.M(), lat, bw, rlat, rbw)
			}
			if err, rerr := p.CheckPlacement(pl), q.CheckPlacement(relabelled); (err == nil) != (rerr == nil) {
				t.Errorf("trial %d (N=%d, M=%d): CheckPlacement %v, relabelled %v", trial, n, p.M(), err, rerr)
			}
		}
	}
}

// checkMapped maps p with mapper and fails unless the placement passes
// CheckPlacement.
func checkMapped(t *testing.T, name string, mapper core.Mapper, p *core.Problem) {
	t.Helper()
	pl, err := mapper.Map(p)
	if err != nil {
		t.Fatalf("%s: %s: %v", name, mapper.Name(), err)
	}
	if err := p.CheckPlacement(pl); err != nil {
		t.Fatalf("%s: %s: %v", name, mapper.Name(), err)
	}
}

// randomProblem builds a feasible problem of n processes on m sites with
// pins and allowed-site sets: each process gets a home site with room
// for it, and its pin or allowed set includes that home. Capacities carry
// up to two nodes of slack, links and traffic come from a few values so
// that costs tie, and sites sit at random coordinates.
func randomProblem(rng *rand.Rand, n, m int) *core.Problem {
	g := comm.NewGraph(n)
	for e := rng.Intn(4 * n); e > 0; e-- {
		g.AddTraffic(rng.Intn(n), rng.Intn(n), []float64{1e3, 1e5, 2e6}[rng.Intn(3)], float64(1+rng.Intn(4)))
	}
	lt, bt := mat.NewSquare(m), mat.NewSquare(m)
	pc := make([]geo.LatLon, m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				lt.Set(k, l, 1e-3)
				bt.Set(k, l, 1e9)
				continue
			}
			lt.Set(k, l, []float64{0.01, 0.05, 0.2}[rng.Intn(3)])
			bt.Set(k, l, []float64{1e6, 1e7, 5e7}[rng.Intn(3)])
		}
		pc[k] = geo.LatLon{Lat: 120*rng.Float64() - 60, Lon: 360*rng.Float64() - 180}
	}
	capacity := make([]int, m)
	home := make([]int, n)
	for i := range home {
		home[i] = rng.Intn(m)
		capacity[home[i]]++
	}
	for s := range capacity {
		capacity[s] = max(1, capacity[s]+rng.Intn(3))
	}
	constraint := mat.NewIntVec(n, core.Unconstrained)
	allowed := make([][]int, n)
	for i := range home {
		switch rng.Intn(5) {
		case 0:
			constraint[i] = home[i]
		case 1, 2:
			set := []int{home[i]}
			for _, s := range rng.Perm(m)[:rng.Intn(m)] {
				if s != home[i] {
					set = append(set, s)
				}
			}
			allowed[i] = set
		}
	}
	return &core.Problem{Comm: g, LT: lt, BT: bt, PC: pc, Capacity: capacity, Constraint: constraint, Allowed: allowed}
}

// TestNoPinsStaysUnconstrained requires the array that backs the
// constraint vector of every unpinned request's problem (noPins) to stay
// all Unconstrained after every mapper a request can name,
// HierarchicalGeoMapper and core.Remap have run on such problems: a
// preset and an explicit edge list, the remap evacuating a dead site
// and moving off a degraded pair. The re-gauging loop's walk is held to
// the same in internal/regauge.
func TestNoPinsStaysUnconstrained(t *testing.T) {
	snap := testSnapshot(t, 64, 1)
	for _, req := range []MapRequest{
		{Workload: "LU", Procs: 48, Seed: 3},
		{Procs: 40, Edges: randomEdges(rand.New(rand.NewSource(5)), 40, 120), Seed: 5},
	} {
		p, err := req.Problem(snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		if &p.Constraint[0] != &noPins[0] {
			t.Fatalf("%d procs: the problem's constraint vector is not a slice of noPins", req.Procs)
		}
		var pl core.Placement
		for _, algo := range mapperAlgorithms {
			req.Algorithm = algo
			mapper, err := req.Mapper(2)
			if err != nil {
				t.Fatal(err)
			}
			if pl, err = mapper.Map(p); err != nil {
				t.Fatalf("%d procs, %q: %v", req.Procs, algo, err)
			}
		}
		if _, err := (&core.HierarchicalGeoMapper{Seed: req.Seed, LeafSites: 2, Workers: 1}).Map(p); err != nil {
			t.Fatal(err)
		}
		rep := &faults.Report{DeadSites: []int{pl[0]}, DegradedPairs: [][2]int{{0, 1}, {1, 0}}}
		if _, err := core.Remap(p, pl, rep, core.RemapOptions{MoveDegraded: true}); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range noPins {
		if c != core.Unconstrained {
			t.Fatalf("noPins[%d] = %d, want Unconstrained", i, c)
		}
	}
}
