package core

import (
	"math"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
)

// twoSiteProblem builds a tiny hand-checkable instance: 4 processes, 2
// sites with capacity 2 each. Site 0 and 1 have intra latency 0.001 s and
// bandwidth 100 MB/s; the cross link has latency 0.1 s and bandwidth
// 10 MB/s (symmetric, no jitter, for exact arithmetic).
func twoSiteProblem() *Problem {
	g := comm.NewGraph(4)
	g.AddTraffic(0, 1, 1e6, 10) // heavy pair A
	g.AddTraffic(2, 3, 1e6, 10) // heavy pair B
	g.AddTraffic(0, 2, 1e3, 1)  // light cross traffic
	lt := mat.MustFrom([][]float64{{0.001, 0.1}, {0.1, 0.001}})
	bt := mat.MustFrom([][]float64{{100e6, 10e6}, {10e6, 100e6}})
	return &Problem{
		Comm:       g,
		LT:         lt,
		BT:         bt,
		PC:         []geo.LatLon{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 100}},
		Capacity:   mat.IntVec{2, 2},
		Constraint: mat.NewIntVec(4, Unconstrained),
	}
}

func TestValidateOK(t *testing.T) {
	if err := twoSiteProblem().Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
}

func TestValidateFailures(t *testing.T) {
	mutations := []struct {
		name string
		fn   func(p *Problem)
	}{
		{"nil comm", func(p *Problem) { p.Comm = nil }},
		{"no processes", func(p *Problem) { p.Comm = comm.NewGraph(0) }},
		{"no sites", func(p *Problem) { p.Capacity = nil }},
		{"nil LT", func(p *Problem) { p.LT = nil }},
		{"LT size", func(p *Problem) { p.LT = mat.NewSquare(3) }},
		{"BT size", func(p *Problem) { p.BT = mat.New(2, 3) }},
		{"PC size", func(p *Problem) { p.PC = p.PC[:1] }},
		{"zero bandwidth", func(p *Problem) { p.BT.Set(0, 1, 0) }},
		{"negative latency", func(p *Problem) { p.LT.Set(1, 0, -1) }},
		{"NaN bandwidth", func(p *Problem) { p.BT.Set(0, 1, math.NaN()) }},
		{"NaN latency", func(p *Problem) { p.LT.Set(1, 0, math.NaN()) }},
		{"infinite bandwidth", func(p *Problem) { p.BT.Set(0, 0, math.Inf(1)) }},
		{"infinite latency", func(p *Problem) { p.LT.Set(1, 0, math.Inf(1)) }},
		{"infinite volume", func(p *Problem) { p.Comm.AddTraffic(1, 2, math.Inf(1), 1) }},
		{"overflowing messages", func(p *Problem) {
			p.Comm.AddTraffic(1, 2, 1, math.MaxFloat64)
			p.Comm.AddTraffic(3, 0, 1, math.MaxFloat64)
		}},
		{"zero capacity", func(p *Problem) { p.Capacity[0] = 0 }},
		{"insufficient capacity", func(p *Problem) { p.Capacity = mat.IntVec{1, 2} }},
		{"constraint length", func(p *Problem) { p.Constraint = p.Constraint[:2] }},
		{"constraint range", func(p *Problem) { p.Constraint[0] = 5 }},
		{"constraint negative", func(p *Problem) { p.Constraint[0] = -2 }},
		{"constraint overflow", func(p *Problem) {
			p.Constraint[0], p.Constraint[1], p.Constraint[2] = 0, 0, 0
		}},
	}
	for _, m := range mutations {
		p := twoSiteProblem()
		m.fn(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken problem", m.name)
		}
	}
}

func TestCheckPlacement(t *testing.T) {
	p := twoSiteProblem()
	if err := p.CheckPlacement(Placement{0, 0, 1, 1}); err != nil {
		t.Errorf("feasible placement rejected: %v", err)
	}
	cases := []struct {
		name string
		pl   Placement
	}{
		{"short", Placement{0, 0, 1}},
		{"range", Placement{0, 0, 1, 2}},
		{"negative", Placement{0, 0, 1, -1}},
		{"overfull", Placement{0, 0, 0, 1}},
	}
	for _, tc := range cases {
		if err := p.CheckPlacement(tc.pl); err == nil {
			t.Errorf("%s: infeasible placement accepted", tc.name)
		}
	}
	p.Constraint[3] = 0
	if err := p.CheckPlacement(Placement{1, 1, 0, 0}); err != nil {
		t.Errorf("placement honoring constraint rejected: %v", err)
	}
	if err := p.CheckPlacement(Placement{0, 0, 1, 1}); err == nil {
		t.Error("constraint-violating placement accepted")
	}
}

func TestCostHandComputed(t *testing.T) {
	p := twoSiteProblem()
	// Colocated pairs: edges (0,1) and (2,3) intra, (0,2) cross.
	colocated := Placement{0, 0, 1, 1}
	wantIntra := 10*0.001 + 1e6/100e6 // per heavy pair
	wantCross := 1*0.1 + 1e3/10e6
	want := 2*wantIntra + wantCross
	if got := p.Cost(colocated).Float(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost(colocated) = %v, want %v", got, want)
	}
	// Split pairs: heavy edges cross, light edge (0,2) intra.
	split := Placement{0, 1, 0, 1}
	wantHeavyCross := 10*0.1 + 1e6/10e6
	wantLightIntra := 1*0.001 + 1e3/100e6
	wantSplit := 2*wantHeavyCross + wantLightIntra
	if got := p.Cost(split).Float(); math.Abs(got-wantSplit) > 1e-9 {
		t.Errorf("Cost(split) = %v, want %v", got, wantSplit)
	}
	if p.Cost(colocated) >= p.Cost(split) {
		t.Error("colocating heavy pairs should be cheaper")
	}
}

func TestCostParts(t *testing.T) {
	p := twoSiteProblem()
	pl := Placement{0, 1, 0, 1}
	lat, bw := p.CostParts(pl)
	if lat <= 0 || bw <= 0 {
		t.Errorf("CostParts = %v, %v; want both positive", lat, bw)
	}
	if math.Abs((lat + bw - p.Cost(pl)).Float()) > 1e-12 {
		t.Error("CostParts does not sum to Cost")
	}
}

// Property: cost is invariant under relabelling processes. On jsonCase
// problems with pins and site sets, a random permutation renames process
// i to perm[i] in the graph, the constraint, the allowed sets and a
// feasible placement together. The relabelled problem must validate and
// accept the relabelled placement, and each of CostParts' two sums must
// agree with the original's within the bound ordereval.go states. Each
// edge's term is the same bits under both labellings, only the order of
// the sum changes: a recursive sum of k ≤ E+3 non-negative terms lies
// within γ_k = k·u/(1−k·u), u = 2⁻⁵³, of the exact sum S, so the two
// sums lie within 2·γ_k·S ≤ 2·γ_k/(1−γ_k)·max of each other, plus
// 2⁻¹⁰⁷⁴ per term for gradual underflow. Values are small multiples of
// powers of ten over sixteen decades, so sums are finite and their
// rounding depends on their order.
func TestCostInvariantUnderRelabelling(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		n, m := 1+int(seed%37), 1+int(seed%5)
		p := jsonCase(seed, n, m, 6) // pins and site sets
		pl, err := (&GeoMapper{Seed: seed}).Map(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		perm := stats.NewRand(seed).Perm(n)
		g := comm.NewGraph(n)
		for i := 0; i < n; i++ {
			for _, e := range p.Comm.Outgoing(i) {
				g.AddTraffic(perm[i], perm[e.Peer], e.Volume, e.Msgs)
			}
		}
		q := *p
		q.Comm = g
		q.Constraint = mat.NewIntVec(n, Unconstrained)
		if p.Allowed != nil {
			q.Allowed = make([][]int, n)
		}
		relabelled := make(Placement, n)
		for i := 0; i < n; i++ {
			q.Constraint[perm[i]] = p.Constraint[i]
			if p.Allowed != nil {
				q.Allowed[perm[i]] = p.Allowed[i]
			}
			relabelled[perm[i]] = pl[i]
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("seed %d: relabelled problem: %v", seed, err)
		}
		if err := q.CheckPlacement(relabelled); err != nil {
			t.Fatalf("seed %d: relabelled placement: %v", seed, err)
		}
		k := float64(p.Comm.EdgeCount() + 3)
		gamma := k * 0x1p-53 / (1 - k*0x1p-53)
		lat, bw := p.CostParts(pl)
		qlat, qbw := q.CostParts(relabelled)
		for _, c := range []struct {
			name string
			a, b float64
		}{{"latency", lat.Float(), qlat.Float()}, {"bandwidth", bw.Float(), qbw.Float()}} {
			if c.a == c.b {
				continue
			}
			bound := 2*gamma/(1-gamma)*math.Max(c.a, c.b) + k*0x1p-1074
			if math.Abs(c.a-c.b) > bound {
				t.Errorf("seed %d: %s cost %v, relabelled %v: differ by more than %v", seed, c.name, c.a, c.b, bound)
			}
		}
	}
}

func TestNM(t *testing.T) {
	p := twoSiteProblem()
	if p.N() != 4 || p.M() != 2 {
		t.Errorf("N/M = %d/%d, want 4/2", p.N(), p.M())
	}
}
