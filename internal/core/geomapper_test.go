package core

import (
	"math"
	"testing"
	"testing/quick"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
)

// bruteForce enumerates every feasible placement of a small problem and
// returns the minimum cost.
func bruteForce(p *Problem) float64 {
	n, m := p.N(), p.M()
	pl := make(Placement, n)
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if p.CheckPlacement(pl) == nil {
				if c := p.Cost(pl).Float(); c < best {
					best = c
				}
			}
			return
		}
		for s := 0; s < m; s++ {
			pl[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestGeoMapperFindsObviousColocation(t *testing.T) {
	p := twoSiteProblem()
	gm := &GeoMapper{Kappa: 2, Seed: 1}
	pl, err := gm.Map(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckPlacement(pl); err != nil {
		t.Fatalf("infeasible placement: %v", err)
	}
	// The heavy pairs (0,1) and (2,3) must be colocated.
	if pl[0] != pl[1] || pl[2] != pl[3] {
		t.Errorf("heavy pairs split: %v", pl)
	}
	opt := bruteForce(p)
	if got := p.Cost(pl).Float(); math.Abs(got-opt) > 1e-9 {
		t.Errorf("cost %v, brute-force optimum %v", got, opt)
	}
}

// clusteredProblem builds N processes in N/4 heavy cliques over M sites
// placed on a line, so good mappings must pack cliques within sites.
func clusteredProblem(n, m int, seed int64) *Problem {
	rng := stats.NewRand(seed)
	g := comm.NewGraph(n)
	cliqueSize := 4
	for c := 0; c < n/cliqueSize; c++ {
		base := c * cliqueSize
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				vol := 1e6 * (1 + rng.Float64())
				g.AddTraffic(base+i, base+j, vol, 10)
				g.AddTraffic(base+j, base+i, vol/2, 5)
			}
		}
		// Light inter-clique traffic.
		if c > 0 {
			g.AddTraffic(base, base-1, 1e3, 1)
		}
	}
	lt := mat.NewSquare(m)
	bt := mat.NewSquare(m)
	pc := make([]geo.LatLon, m)
	for k := 0; k < m; k++ {
		pc[k] = geo.LatLon{Lat: 0, Lon: float64(k) * 30}
		for l := 0; l < m; l++ {
			if k == l {
				lt.Set(k, l, 0.001)
				bt.Set(k, l, 100e6)
			} else {
				d := math.Abs(float64(k - l))
				lt.Set(k, l, 0.05*d)
				bt.Set(k, l, 20e6/d)
			}
		}
	}
	return &Problem{
		Comm:       g,
		LT:         lt,
		BT:         bt,
		PC:         pc,
		Capacity:   mat.NewIntVec(m, (n+m-1)/m),
		Constraint: mat.NewIntVec(n, Unconstrained),
	}
}

func TestGeoMapperBeatsRandomOnCliques(t *testing.T) {
	p := clusteredProblem(32, 4, 7)
	gm := &GeoMapper{Kappa: 4, Seed: 1}
	pl, err := gm.Map(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckPlacement(pl); err != nil {
		t.Fatal(err)
	}
	geoCost := p.Cost(pl).Float()
	rng := stats.NewRand(99)
	var randCosts []float64
	for i := 0; i < 50; i++ {
		rp, err := RandomPlacement(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		randCosts = append(randCosts, p.Cost(rp).Float())
	}
	if mean := stats.Mean(randCosts); geoCost > mean*0.6 {
		t.Errorf("geo cost %v not clearly below random mean %v", geoCost, mean)
	}
	if min := stats.Min(randCosts); geoCost > min {
		t.Errorf("geo cost %v worse than best of 50 random (%v)", geoCost, min)
	}
}

func TestGeoMapperHonorsConstraints(t *testing.T) {
	p := clusteredProblem(16, 4, 3)
	p.Constraint[0] = 3
	p.Constraint[5] = 1
	p.Constraint[6] = 1
	gm := &GeoMapper{Kappa: 3, Seed: 2}
	pl, err := gm.Map(p)
	if err != nil {
		t.Fatal(err)
	}
	if pl[0] != 3 || pl[5] != 1 || pl[6] != 1 {
		t.Errorf("constraints violated: %v", pl)
	}
	if err := p.CheckPlacement(pl); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMapperFullyConstrained(t *testing.T) {
	p := twoSiteProblem()
	p.Constraint = mat.IntVec{1, 0, 1, 0}
	pl, err := (&GeoMapper{Kappa: 2}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Equal(mat.IntVec{1, 0, 1, 0}) {
		t.Errorf("fully constrained placement = %v, want the constraint vector", pl)
	}
}

func TestGeoMapperDeterminism(t *testing.T) {
	p := clusteredProblem(24, 3, 5)
	a, err := (&GeoMapper{Kappa: 3, Seed: 11}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&GeoMapper{Kappa: 3, Seed: 11}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different placements")
	}
}

func TestGeoMapperKappaValidation(t *testing.T) {
	p := twoSiteProblem()
	if _, err := (&GeoMapper{Kappa: -1}).Map(p); err == nil {
		t.Error("negative kappa accepted")
	}
	if _, err := (&GeoMapper{Kappa: MaxKappa + 1}).Map(p); err == nil {
		t.Error("kappa above MaxKappa accepted")
	}
	// Kappa larger than M clamps rather than failing.
	if _, err := (&GeoMapper{Kappa: MaxKappa}).Map(p); err != nil {
		t.Errorf("kappa > M should clamp, got %v", err)
	}
}

func TestGeoMapperInvalidProblem(t *testing.T) {
	p := twoSiteProblem()
	p.Capacity[0] = 0
	if _, err := (&GeoMapper{}).Map(p); err == nil {
		t.Error("invalid problem accepted")
	}
}

// Property: on random problems the geo mapper always produces feasible
// placements and never loses to the mean of random placements.
func TestQuickGeoMapperFeasibleAndCompetitive(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		// n ≥ 8: on 4-process instances the greedy packing is a max-weight
		// matching heuristic that adversarial volumes can push below the
		// random mean, which is expected (the paper's setting is n ≫ m).
		n := int(nRaw%24) + 8
		m := int(mRaw%4) + 2
		p := clusteredProblem(n, m, seed)
		// Pin ~20% of processes, round-robin across sites.
		for i := 0; i < n/5; i++ {
			p.Constraint[i*5%n] = i % m
		}
		if p.Validate() != nil {
			return true // capacity collision from pinning; skip
		}
		pl, err := (&GeoMapper{Kappa: 3, Seed: seed}).Map(p)
		if err != nil {
			return false
		}
		if p.CheckPlacement(pl) != nil {
			return false
		}
		rng := stats.NewRand(seed + 1)
		var costs []float64
		for i := 0; i < 20; i++ {
			rp, err := RandomPlacement(p, rng)
			if err != nil {
				return false
			}
			costs = append(costs, p.Cost(rp).Float())
		}
		return p.Cost(pl).Float() <= stats.Mean(costs)*1.02+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the geo mapper is within a small factor of the brute-force
// optimum on tiny instances.
func TestQuickGeoMapperNearOptimal(t *testing.T) {
	f := func(seed int64) bool {
		p := clusteredProblem(8, 2, seed)
		pl, err := (&GeoMapper{Kappa: 2, Seed: seed}).Map(p)
		if err != nil {
			return false
		}
		opt := bruteForce(p)
		return p.Cost(pl).Float() <= opt*1.25+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestGeoMapperRefineNeverWorse(t *testing.T) {
	p := clusteredProblem(32, 4, 13)
	p.Constraint[2] = 1
	p.Constraint[9] = 3
	plain, err := (&GeoMapper{Kappa: 4, Seed: 1}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := (&GeoMapper{Kappa: 4, Seed: 1, RefinePasses: 10}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckPlacement(refined); err != nil {
		t.Fatalf("refined placement infeasible: %v", err)
	}
	if p.Cost(refined) > p.Cost(plain)+1e-9 {
		t.Errorf("refinement made the placement worse: %v vs %v", p.Cost(refined), p.Cost(plain))
	}
}

// TestExchangeDeltaMatchesRecomputation checks the swap delta Exchange
// prices with — the level-0 instance kernel over p.instance(nil) —
// against core's own whole-placement Cost.
func TestExchangeDeltaMatchesRecomputation(t *testing.T) {
	p := clusteredProblem(16, 4, 17)
	pl, err := RandomPlacement(p, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	in := p.instance(nil)
	for a := 0; a < p.N(); a++ {
		for b := a + 1; b < p.N(); b++ {
			if pl[a] == pl[b] {
				continue
			}
			sw := pl.Clone()
			sw[a], sw[b] = sw[b], sw[a]
			want := p.Cost(sw) - p.Cost(pl)
			if got := in.SwapDelta(pl, a, b); math.Abs((got - want).Float()) > 1e-9 {
				t.Fatalf("SwapDelta(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestRefinePassReachesLocalOptimum(t *testing.T) {
	p := clusteredProblem(20, 4, 19)
	pl, err := (&GeoMapper{Kappa: 4, Seed: 1, RefinePasses: 100}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	base := p.Cost(pl)
	for a := 0; a < p.N(); a++ {
		for b := a + 1; b < p.N(); b++ {
			if pl[a] == pl[b] {
				continue
			}
			sw := pl.Clone()
			sw[a], sw[b] = sw[b], sw[a]
			if p.Cost(sw) < base-1e-9 {
				t.Fatalf("exchange (%d,%d) still improves after refinement", a, b)
			}
		}
	}
}
