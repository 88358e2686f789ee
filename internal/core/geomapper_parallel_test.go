package core

import (
	"math"
	"runtime"
	"testing"
)

// siteSetProblem derives a clustered problem with multi-site Allowed
// restrictions: every third process is confined to two sites and every
// seventh to one, so greedy fills routinely strand processes and the
// repair path runs.
func siteSetProblem(n, m int, seed int64) *Problem {
	p := clusteredProblem(n, m, seed)
	p.Allowed = make([][]int, n)
	for i := 0; i < n; i++ {
		switch {
		case i%7 == 0:
			p.Allowed[i] = []int{i % m}
		case i%3 == 0:
			p.Allowed[i] = []int{i % m, (i + 1) % m}
		}
	}
	return p
}

// TestOrderSearchSerialParallelEquivalence is the cross-check the
// deterministic reduction promises: for every problem shape in the sweep,
// Workers=1 and Workers>1 must return byte-identical placements and
// bit-identical costs — the winning order may not depend on scheduling.
func TestOrderSearchSerialParallelEquivalence(t *testing.T) {
	type variant struct {
		name string
		prob func(seed int64) *Problem
		gm   GeoMapper
	}
	variants := []variant{
		{"plain-k3", func(s int64) *Problem { return clusteredProblem(24, 4, s) }, GeoMapper{Kappa: 3}},
		{"plain-k5", func(s int64) *Problem { return clusteredProblem(30, 6, s) }, GeoMapper{Kappa: 5}},
		{"pinned-k4", func(s int64) *Problem {
			p := clusteredProblem(24, 4, s)
			for i := 0; i < 5; i++ {
				p.Constraint[i*4] = i % 4
			}
			return p
		}, GeoMapper{Kappa: 4}},
		{"sitesets-k4", func(s int64) *Problem { return siteSetProblem(28, 4, s) }, GeoMapper{Kappa: 4}},
		{"ungrouped-m6", func(s int64) *Problem { return clusteredProblem(24, 6, s) }, GeoMapper{Kappa: 6, DisableGrouping: true}},
		{"single-order-k4", func(s int64) *Problem { return siteSetProblem(28, 4, s) }, GeoMapper{Kappa: 4, SingleOrder: true}},
		{"refined-k4", func(s int64) *Problem { return clusteredProblem(24, 4, s) }, GeoMapper{Kappa: 4, RefinePasses: 5}},
	}
	workerCounts := []int{2, 3, 8, runtime.GOMAXPROCS(0)}
	for _, v := range variants {
		for seed := int64(1); seed <= 3; seed++ {
			p := v.prob(seed)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s seed %d: invalid sweep problem: %v", v.name, seed, err)
			}
			serial := v.gm
			serial.Seed = seed
			serial.Workers = 1
			wantPl, err := serial.Map(p)
			if err != nil {
				t.Fatalf("%s seed %d serial: %v", v.name, seed, err)
			}
			wantCost := p.Cost(wantPl)
			for _, w := range workerCounts {
				par := v.gm
				par.Seed = seed
				par.Workers = w
				gotPl, err := par.Map(p)
				if err != nil {
					t.Fatalf("%s seed %d workers=%d: %v", v.name, seed, w, err)
				}
				if !gotPl.Equal(wantPl) {
					t.Errorf("%s seed %d workers=%d: placement differs\n serial:   %v\n parallel: %v", v.name, seed, w, wantPl, gotPl)
				}
				if got := p.Cost(gotPl); math.Float64bits(got.Float()) != math.Float64bits(wantCost.Float()) {
					t.Errorf("%s seed %d workers=%d: cost %v != serial %v (bitwise)", v.name, seed, w, got, wantCost)
				}
			}
		}
	}
}

// TestHierarchicalWorkersEquivalence extends the cross-check to the
// recursive mapper, which forwards Workers to every level's flat solver.
func TestHierarchicalWorkersEquivalence(t *testing.T) {
	p := clusteredProblem(48, 8, 5)
	serial, err := (&HierarchicalGeoMapper{Kappa: 3, Seed: 5, LeafSites: 3, Workers: 1}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		par, err := (&HierarchicalGeoMapper{Kappa: 3, Seed: 5, LeafSites: 3, Workers: w}).Map(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !par.Equal(serial) {
			t.Errorf("workers=%d: hierarchical placement differs from serial", w)
		}
	}
}

// TestGeoMapperWorkersInvalidAndDefault covers the Workers knob's edge
// values: negative and zero both resolve to a usable worker count.
func TestGeoMapperWorkersInvalidAndDefault(t *testing.T) {
	p := clusteredProblem(16, 4, 3)
	want, err := (&GeoMapper{Kappa: 4, Seed: 3, Workers: 1}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, -2, 1000} { // 1000 > κ! clamps to one rank per worker
		got, err := (&GeoMapper{Kappa: 4, Seed: 3, Workers: w}).Map(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !got.Equal(want) {
			t.Errorf("workers=%d: placement differs from serial", w)
		}
	}
}

// TestRefinementCostResync is the cost-drift regression: the cost
// Exchange returns must match the true objective of the placement it
// refined bit for bit (the incremental deltas alone drift across passes),
// and Exchange over the search-phase winner must reproduce Map's result.
func TestRefinementCostResync(t *testing.T) {
	p := clusteredProblem(40, 4, 21)
	gm := &GeoMapper{Kappa: 4, Seed: 21, RefinePasses: 50, Workers: 1}
	pl, err := gm.Map(p)
	if err != nil {
		t.Fatal(err)
	}
	search := &GeoMapper{Kappa: 4, Seed: 21, Workers: 1}
	base, err := search.Map(p)
	if err != nil {
		t.Fatal(err)
	}
	for passes := 1; passes <= 50; passes *= 7 {
		refined := base.Clone()
		cost := p.Exchange(refined, passes)
		if got := p.Cost(refined); math.Float64bits(cost.Float()) != math.Float64bits(got.Float()) {
			t.Fatalf("%d passes: returned cost %v != true cost %v", passes, cost, got)
		}
	}
	p.Exchange(base, 50)
	if !base.Equal(pl) {
		t.Errorf("Exchange over the search winner differs from Map's result")
	}
	if err := p.CheckPlacement(pl); err != nil {
		t.Fatal(err)
	}
}

// TestGeoMapperParallelSiteSetConstraintsSweep exercises the repair path
// under parallel search with capacities at their Hall-condition edge.
func TestGeoMapperParallelSiteSetConstraintsSweep(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := siteSetProblem(24, 4, seed)
		for j := range p.Capacity {
			p.Capacity[j] = 24/4 + 1
		}
		p.Constraint[1] = 2
		if p.Validate() != nil {
			continue
		}
		serial, err := (&GeoMapper{Kappa: 4, Seed: seed, Workers: 1}).Map(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		par, err := (&GeoMapper{Kappa: 4, Seed: seed, Workers: 6}).Map(p)
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if !par.Equal(serial) {
			t.Errorf("seed %d: parallel differs from serial under site sets", seed)
		}
		if err := p.CheckPlacement(par); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
