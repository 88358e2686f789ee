package baselines

import (
	"math"
	"testing"
	"testing/quick"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/core"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/multilevel"
	"geoprocmap/internal/stats"
)

// lineProblem builds n processes in heavy consecutive pairs over m sites on
// a line with distance-degraded links — a pattern with an obvious good
// mapping (colocate each pair).
func lineProblem(n, m int, seed int64) *core.Problem {
	rng := stats.NewRand(seed)
	g := comm.NewGraph(n)
	for i := 0; i+1 < n; i += 2 {
		vol := 1e6 * (1 + rng.Float64())
		g.AddTraffic(i, i+1, vol, 20)
		g.AddTraffic(i+1, i, vol/2, 10)
	}
	for i := 0; i+2 < n; i += 2 {
		g.AddTraffic(i, i+2, 1e3, 1)
	}
	lt := mat.NewSquare(m)
	bt := mat.NewSquare(m)
	pc := make([]geo.LatLon, m)
	for k := 0; k < m; k++ {
		pc[k] = geo.LatLon{Lat: 0, Lon: 40 * float64(k)}
		for l := 0; l < m; l++ {
			if k == l {
				lt.Set(k, l, 0.001)
				bt.Set(k, l, 100e6)
			} else {
				d := math.Abs(float64(k - l))
				lt.Set(k, l, 0.05*d)
				bt.Set(k, l, 15e6/d)
			}
		}
	}
	return &core.Problem{
		Comm:       g,
		LT:         lt,
		BT:         bt,
		PC:         pc,
		Capacity:   mat.NewIntVec(m, (n+m-1)/m),
		Constraint: mat.NewIntVec(n, core.Unconstrained),
	}
}

func mappers(seed int64) []core.Mapper {
	return []core.Mapper{
		&Random{Seed: seed},
		&Greedy{},
		&MPIPP{Seed: seed},
		&MonteCarlo{Seed: seed, Samples: 200},
	}
}

func TestAllMappersFeasible(t *testing.T) {
	p := lineProblem(16, 4, 1)
	p.Constraint[3] = 2
	p.Constraint[8] = 0
	for _, m := range mappers(5) {
		pl, err := m.Map(p)
		if err != nil {
			t.Errorf("%s: %v", m.Name(), err)
			continue
		}
		if err := p.CheckPlacement(pl); err != nil {
			t.Errorf("%s: infeasible: %v", m.Name(), err)
		}
		if pl[3] != 2 || pl[8] != 0 {
			t.Errorf("%s: constraints ignored: %v", m.Name(), pl)
		}
	}
}

func TestAllMappersRejectInvalidProblem(t *testing.T) {
	p := lineProblem(8, 2, 1)
	p.Capacity[0] = 0
	for _, m := range mappers(1) {
		if _, err := m.Map(p); err == nil {
			t.Errorf("%s accepted an invalid problem", m.Name())
		}
	}
}

func TestGreedyColocatesHeavyPairs(t *testing.T) {
	p := lineProblem(16, 4, 2)
	pl, err := (&Greedy{}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	colocated := 0
	for i := 0; i+1 < 16; i += 2 {
		if pl[i] == pl[i+1] {
			colocated++
		}
	}
	if colocated < 6 {
		t.Errorf("greedy colocated only %d/8 heavy pairs: %v", colocated, pl)
	}
}

func TestGreedyBeatsRandomOnLocality(t *testing.T) {
	p := lineProblem(24, 4, 3)
	gp, err := (&Greedy{}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(7)
	var rc []float64
	for i := 0; i < 50; i++ {
		rp, err := core.RandomPlacement(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		rc = append(rc, p.Cost(rp).Float())
	}
	if p.Cost(gp).Float() > stats.Mean(rc)*0.7 {
		t.Errorf("greedy cost %v not clearly below random mean %v", p.Cost(gp), stats.Mean(rc))
	}
}

func TestMPIPPImprovesOverRandom(t *testing.T) {
	p := lineProblem(20, 4, 4)
	mp, err := (&MPIPP{Seed: 9, Restarts: 2}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := (&Random{Seed: 9}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost(mp) > p.Cost(rp) {
		t.Errorf("MPIPP cost %v worse than its own random start %v", p.Cost(mp), p.Cost(rp))
	}
}

func TestMPIPPLocalOptimum(t *testing.T) {
	p := lineProblem(12, 3, 5)
	pl, err := (&MPIPP{Seed: 1, Restarts: 1, MaxPasses: 200}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	// No single pairwise exchange of unpinned processes may improve
	// MPIPP's partitioning objective (the weighted edge cut).
	cut := uniformCutProblem(p)
	base := cut.Cost(pl)
	for a := 0; a < p.N(); a++ {
		for b := a + 1; b < p.N(); b++ {
			if pl[a] == pl[b] {
				continue
			}
			swapped := pl.Clone()
			swapped[a], swapped[b] = swapped[b], swapped[a]
			if cut.Cost(swapped) < base-1e-9 {
				t.Fatalf("exchange (%d,%d) improves cut %v → %v; not a local optimum", a, b, base, cut.Cost(swapped))
			}
		}
	}
}

func TestMPIPPCutObjectiveIgnoresHeterogeneity(t *testing.T) {
	p := lineProblem(12, 3, 5)
	cut := uniformCutProblem(p)
	// The cut problem's cost is the cross-partition volume only.
	pl := mat.IntVec{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	var want float64
	for i := 0; i < p.N(); i++ {
		for _, e := range p.Comm.Outgoing(i) {
			if pl[i] != pl[e.Peer] {
				want += e.Volume
			}
		}
	}
	if got := cut.Cost(pl); math.Abs(got.Float()-want) > want*1e-9+1e-9 {
		t.Errorf("cut cost = %v, want cross volume %v", got, want)
	}
}

// TestSwapDeltaMatchesFullRecomputation checks the swap delta MPIPP's
// exchange sweeps price with — multilevel's level-0 kernel — against
// core.Problem.Cost on a heterogeneous line.
func TestSwapDeltaMatchesFullRecomputation(t *testing.T) {
	p := lineProblem(14, 4, 6)
	rng := stats.NewRand(3)
	pl, err := core.RandomPlacement(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	in := &multilevel.Instance{G: multilevel.FromComm(p.Comm), LT: p.LT, BT: p.BT, Capacity: p.Capacity}
	for a := 0; a < p.N(); a++ {
		for b := a + 1; b < p.N(); b++ {
			if pl[a] == pl[b] {
				continue
			}
			want := func() float64 {
				sw := pl.Clone()
				sw[a], sw[b] = sw[b], sw[a]
				return (p.Cost(sw) - p.Cost(pl)).Float()
			}()
			if got := in.SwapDelta(pl, a, b); math.Abs(got.Float()-want) > 1e-9 {
				t.Fatalf("SwapDelta(%d,%d) = %v, full recomputation %v", a, b, got, want)
			}
		}
	}
}

func TestMonteCarloSampleAndBestOfK(t *testing.T) {
	p := lineProblem(12, 3, 7)
	mc := &MonteCarlo{Seed: 4}
	costs, err := mc.Sample(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 100 {
		t.Fatalf("Sample returned %d costs", len(costs))
	}
	for _, c := range costs {
		if c <= 0 {
			t.Fatal("nonpositive sampled cost")
		}
	}
	curve, err := mc.BestOfK(p, []int{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !(curve[0] >= curve[1] && curve[1] >= curve[2]) {
		t.Errorf("best-of-K curve not nonincreasing: %v", curve)
	}
	// The same seed draws the same stream, so best-of-100 equals min(Sample(100)).
	if math.Abs(curve[2]-stats.Min(costs)) > 1e-9 {
		t.Errorf("BestOfK(100) = %v, min(Sample(100)) = %v", curve[2], stats.Min(costs))
	}
}

func TestMonteCarloArgErrors(t *testing.T) {
	p := lineProblem(8, 2, 1)
	mc := &MonteCarlo{Seed: 1}
	if _, err := mc.Sample(p, 0); err == nil {
		t.Error("Sample(0) accepted")
	}
	if _, err := mc.BestOfK(p, nil); err == nil {
		t.Error("empty ks accepted")
	}
	if _, err := mc.BestOfK(p, []int{5, 3}); err == nil {
		t.Error("decreasing ks accepted")
	}
	if _, err := mc.BestOfK(p, []int{0}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestMapperNames(t *testing.T) {
	wants := map[string]core.Mapper{
		"Baseline":   &Random{},
		"Greedy":     &Greedy{},
		"MPIPP":      &MPIPP{},
		"MonteCarlo": &MonteCarlo{},
	}
	for want, m := range wants {
		if m.Name() != want {
			t.Errorf("Name = %q, want %q", m.Name(), want)
		}
	}
}

// Property: every baseline returns feasible placements on random problems
// with constraints.
func TestQuickBaselinesFeasible(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%16)*2 + 4
		m := int(mRaw%3) + 2
		p := lineProblem(n, m, seed)
		for i := 0; i < n/6; i++ {
			p.Constraint[(i*7)%n] = i % m
		}
		if p.Validate() != nil {
			return true
		}
		for _, mp := range []core.Mapper{&Random{Seed: seed}, &Greedy{}, &MPIPP{Seed: seed, Restarts: 1, MaxPasses: 5}, &MonteCarlo{Seed: seed, Samples: 10}} {
			pl, err := mp.Map(p)
			if err != nil {
				return false
			}
			if p.CheckPlacement(pl) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBaselinesHonorSiteSets(t *testing.T) {
	p := lineProblem(18, 3, 11)
	p.Allowed = make([][]int, 18)
	for i := 0; i < 6; i++ {
		p.Allowed[i] = []int{2}
	}
	for i := 6; i < 10; i++ {
		p.Allowed[i] = []int{0, 1}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range mappers(3) {
		pl, err := m.Map(p)
		if err != nil {
			t.Errorf("%s: %v", m.Name(), err)
			continue
		}
		if err := p.CheckPlacement(pl); err != nil {
			t.Errorf("%s violates site sets: %v", m.Name(), err)
		}
	}
}
