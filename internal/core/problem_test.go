package core

import (
	"math"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
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

func TestNM(t *testing.T) {
	p := twoSiteProblem()
	if p.N() != 4 || p.M() != 2 {
		t.Errorf("N/M = %d/%d, want 4/2", p.N(), p.M())
	}
}
