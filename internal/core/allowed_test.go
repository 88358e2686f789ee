package core

import (
	"slices"
	"testing"
	"testing/quick"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
)

// withSiteSets attaches multi-site restrictions to a clustered problem:
// the first third may only use sites {0, 1}, the second third only
// {m-1}, the rest unrestricted.
func withSiteSets(n, m int, seed int64) *Problem {
	p := clusteredProblem(n, m, seed)
	p.Allowed = make([][]int, n)
	for i := 0; i < n/3; i++ {
		p.Allowed[i] = []int{0, 1 % m}
	}
	for i := n / 3; i < 2*n/3; i++ {
		p.Allowed[i] = []int{m - 1}
	}
	return p
}

func TestAllowedOn(t *testing.T) {
	p := twoSiteProblem()
	p.Allowed = [][]int{{1}, nil, {0, 1}, nil}
	if p.AllowedOn(0, 0) || !p.AllowedOn(0, 1) {
		t.Error("singleton allowed set misapplied")
	}
	if !p.AllowedOn(1, 0) || !p.AllowedOn(1, 1) {
		t.Error("empty set should allow everything")
	}
	p.Constraint[1] = 0
	if p.AllowedOn(1, 1) {
		t.Error("pin must dominate an empty allowed set")
	}
}

func TestValidateAllowed(t *testing.T) {
	base := func() *Problem { return twoSiteProblem() }

	p := base()
	p.Allowed = [][]int{{0}, {0}, nil, nil}
	if err := p.Validate(); err != nil {
		t.Errorf("feasible site sets rejected: %v", err)
	}

	cases := []struct {
		name string
		fn   func(p *Problem)
	}{
		{"wrong length", func(p *Problem) { p.Allowed = [][]int{{0}} }},
		{"out of range", func(p *Problem) { p.Allowed = [][]int{{5}, nil, nil, nil} }},
		{"duplicate site", func(p *Problem) { p.Allowed = [][]int{{0, 0}, nil, nil, nil} }},
		{"pin outside set", func(p *Problem) {
			p.Constraint[0] = 1
			p.Allowed = [][]int{{0}, nil, nil, nil}
		}},
		{"hall violation", func(p *Problem) {
			// Three processes restricted to site 0, capacity 2.
			p.Allowed = [][]int{{0}, {0}, {0}, nil}
		}},
	}
	for _, tc := range cases {
		p := base()
		tc.fn(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCheckPlacementAllowed(t *testing.T) {
	p := twoSiteProblem()
	p.Allowed = [][]int{{1}, nil, nil, nil}
	if err := p.CheckPlacement(Placement{1, 0, 0, 1}); err != nil {
		t.Errorf("admissible placement rejected: %v", err)
	}
	if err := p.CheckPlacement(Placement{0, 1, 0, 1}); err == nil {
		t.Error("inadmissible placement accepted")
	}
}

func TestConstrainedRandomPlacement(t *testing.T) {
	p := withSiteSets(18, 3, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(1)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		pl, err := RandomPlacement(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckPlacement(pl); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		key := ""
		for _, s := range pl {
			key += string(rune('0' + s))
		}
		seen[key] = true
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct constrained placements in 50 draws; sampler not random", len(seen))
	}
}

func TestConstrainedRandomPlacementTight(t *testing.T) {
	// Fully determined instance: two sites with capacity 2 each, all four
	// processes restricted to exactly one site.
	p := twoSiteProblem()
	p.Allowed = [][]int{{0}, {0}, {1}, {1}}
	pl, err := RandomPlacement(p, stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Equal(mat.IntVec{0, 0, 1, 1}) {
		t.Errorf("tight placement = %v, want [0 0 1 1]", pl)
	}
}

func TestConstrainedRandomPlacementNeedsAugmenting(t *testing.T) {
	// Site 0 has capacity 2; processes 0,1 allow {0,1} and processes 2,3
	// allow only {0}. A naive greedy that parks 0 and 1 on site 0 first
	// must relocate them via augmenting paths.
	p := twoSiteProblem()
	p.Allowed = [][]int{{0, 1}, {0, 1}, {0}, {0}}
	for seed := int64(0); seed < 20; seed++ {
		pl, err := RandomPlacement(p, stats.NewRand(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if pl[2] != 0 || pl[3] != 0 {
			t.Fatalf("seed %d: restricted processes misplaced: %v", seed, pl)
		}
		if err := p.CheckPlacement(pl); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGeoMapperWithSiteSets(t *testing.T) {
	p := withSiteSets(24, 3, 7)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	pl, err := (&GeoMapper{Kappa: 3, Seed: 1}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckPlacement(pl); err != nil {
		t.Fatalf("geo placement violates site sets: %v", err)
	}
}

func TestGeoMapperSiteSetsStillOptimize(t *testing.T) {
	p := withSiteSets(24, 3, 9)
	pl, err := (&GeoMapper{Kappa: 3, Seed: 1}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(5)
	var costs []float64
	for i := 0; i < 30; i++ {
		rp, err := RandomPlacement(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, p.Cost(rp).Float())
	}
	if p.Cost(pl).Float() > stats.Mean(costs) {
		t.Errorf("geo cost %v not below random mean %v under site sets", p.Cost(pl), stats.Mean(costs))
	}
}

func TestRepairLeftovers(t *testing.T) {
	p := twoSiteProblem()
	p.Allowed = [][]int{{0, 1}, {0, 1}, {0}, {0}}
	// Pathological partial placement: 0 and 1 occupy site 0; 2 and 3 are
	// unplaced and only admissible on site 0.
	pl := Placement{0, 0, Unconstrained, Unconstrained}
	if err := RepairLeftovers(p, pl); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckPlacement(pl); err != nil {
		t.Fatalf("repair produced infeasible placement: %v", err)
	}
	if pl[2] != 0 || pl[3] != 0 {
		t.Errorf("restricted processes not at site 0: %v", pl)
	}
}

func TestRepairLeftoversInfeasible(t *testing.T) {
	p := twoSiteProblem()
	p.Allowed = [][]int{{0}, {0}, {0}, nil}
	// Three processes needing site 0 (capacity 2): repair must fail.
	pl := Placement{0, 0, Unconstrained, 1}
	if err := RepairLeftovers(p, pl); err == nil {
		t.Error("infeasible repair succeeded")
	}
}

// Property: on random feasible site-set instances, RandomPlacement and
// GeoMapper always produce admissible placements.
func TestQuickSiteSetsFeasible(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8, masks []uint8) bool {
		n := int(nRaw%16) + 4
		m := int(mRaw%3) + 2
		p := clusteredProblem(n, m, seed)
		p.Allowed = make([][]int, n)
		for i := 0; i < n && i < len(masks); i++ {
			for s := 0; s < m; s++ {
				if masks[i]&(1<<uint(s)) != 0 {
					p.Allowed[i] = append(p.Allowed[i], s)
				}
			}
		}
		if p.Validate() != nil {
			return true // infeasible mask draw; skip
		}
		pl, err := RandomPlacement(p, stats.NewRand(seed))
		if err != nil || p.CheckPlacement(pl) != nil {
			return false
		}
		gp, err := (&GeoMapper{Kappa: 3, Seed: seed}).Map(p)
		if err != nil || p.CheckPlacement(gp) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Regression: a tight instance (all capacities exactly filled, overlapping
// small allowed sets) on which RepairLeftovers once mis-iterated its
// occupant list and reported false infeasibility.
func TestGeoMapperTightSiteSetsRegression(t *testing.T) {
	masks := []byte{0xae, 0x23, 0xb6, 0x41, 0xe3, 0x3e, 0x5c, 0x53}
	p := clusteredProblem(8, 4, -5635030028237787357)
	p.Allowed = make([][]int, 8)
	for i := range p.Allowed {
		for s := 0; s < 4; s++ {
			if masks[i]&(1<<uint(s)) != 0 {
				p.Allowed[i] = append(p.Allowed[i], s)
			}
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	pl, err := (&GeoMapper{Kappa: 3, Seed: -5635030028237787357}).Map(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckPlacement(pl); err != nil {
		t.Fatal(err)
	}
}

// FuzzMatcherMatchesHall checks both of the matcher's searches against
// Hall's condition, a reference that shares no code with them. From the
// pins alone, the phased verdict must leave exactly Hall's deficiency
// unplaced, RepairLeftovers must succeed exactly when that deficiency is
// zero, and every success must be an admissible placement. Instances have
// up to 16 processes and 5 sites, with random capacities (zero included),
// pins that fit their sites, and site sets that contain their process's
// pin.
func FuzzMatcherMatchesHall(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(4))
	f.Add(int64(2), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8) {
		p := fuzzSiteSetProblem(seed, 1+int(nRaw%16), 1+int(mRaw%5))
		deficiency := hallDeficiency(p)
		unplaced := p.unplaceable()
		pl := p.Constraint.Clone()
		repaired := RepairLeftovers(p, pl)
		if unplaced != deficiency || (repaired == nil) != (deficiency == 0) {
			t.Fatalf("phased search leaves %d unplaced, repair error %v, Hall deficiency %d (capacity %v, pins %v, sets %v)",
				unplaced, repaired, deficiency, p.Capacity, p.Constraint, p.Allowed)
		}
		if repaired == nil {
			if err := p.CheckPlacement(pl); err != nil {
				t.Fatalf("repaired placement %v invalid: %v", pl, err)
			}
		}
	})
}

// hallDeficiency returns the most processes any placement must leave
// out: the largest excess, over every subset T of p's sites, of the
// processes whose admissible sites all lie in T over T's total capacity.
// By Hall's theorem it is zero exactly when the constraints are feasible.
func hallDeficiency(p *Problem) int {
	m := p.M()
	masks := make([]int, p.N())
	for i := range masks {
		switch {
		case p.Constraint[i] != Unconstrained:
			masks[i] = 1 << p.Constraint[i]
		case len(p.Allowed[i]) > 0:
			for _, s := range p.Allowed[i] {
				masks[i] |= 1 << s
			}
		default:
			masks[i] = 1<<m - 1
		}
	}
	worst := 0
	for T := 0; T < 1<<m; T++ {
		excess := 0
		for s := 0; s < m; s++ {
			if T&(1<<s) != 0 {
				excess -= p.Capacity[s]
			}
		}
		for _, mask := range masks {
			if mask&^T == 0 {
				excess++
			}
		}
		worst = max(worst, excess)
	}
	return worst
}

// Property: the phased verdict places every process exactly when an
// exhaustive search finds an assignment that puts every process on an
// allowed site within capacity.
func TestQuickVerdictMatchesExhaustive(t *testing.T) {
	f := func(nRaw, mRaw uint8, caps, masks []uint8) bool {
		n := int(nRaw%10) + 1
		m := int(mRaw%4) + 1
		p := &Problem{
			Comm:       comm.NewGraph(n),
			Capacity:   mat.NewIntVec(m, (n+m-1)/m+1),
			Constraint: mat.NewIntVec(n, Unconstrained),
			Allowed:    make([][]int, n),
		}
		for s := 0; s < m && s < len(caps); s++ {
			p.Capacity[s] = int(caps[s] % 4)
		}
		for i := 0; i < n && i < len(masks); i++ {
			for s := 0; s < m; s++ {
				if masks[i]&(1<<uint(s)) != 0 {
					p.Allowed[i] = append(p.Allowed[i], s)
				}
			}
		}
		return (p.unplaceable() == 0) == exhaustive(p.Allowed, p.Capacity.Clone(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// exhaustive reports whether processes i.. can be assigned to allowed
// sites (all sites when the list is empty) within the remaining capacity,
// by backtracking.
func exhaustive(allowed [][]int, capacity []int, i int) bool {
	if i == len(allowed) {
		return true
	}
	try := func(s int) bool {
		if capacity[s] == 0 {
			return false
		}
		capacity[s]--
		ok := exhaustive(allowed, capacity, i+1)
		capacity[s]++
		return ok
	}
	if len(allowed[i]) == 0 {
		for s := range capacity {
			if try(s) {
				return true
			}
		}
		return false
	}
	for _, s := range allowed[i] {
		if try(s) {
			return true
		}
	}
	return false
}

// fuzzSiteSetProblem draws an n-process, m-site site-set instance from seed.
func fuzzSiteSetProblem(seed int64, n, m int) *Problem {
	rng := stats.NewRand(seed)
	p := &Problem{
		Comm:       comm.NewGraph(n),
		Capacity:   mat.NewIntVec(m, 0),
		Constraint: mat.NewIntVec(n, Unconstrained),
		Allowed:    make([][]int, n),
	}
	for k := range p.Capacity {
		p.Capacity[k] = rng.Intn(2*((n+m-1)/m) + 1)
	}
	pinned := make([]int, m)
	for i := 0; i < n; i++ {
		if k := rng.Intn(m); rng.Intn(5) == 0 && pinned[k] < p.Capacity[k] {
			p.Constraint[i] = k
			pinned[k]++
		}
		if rng.Intn(2) == 0 {
			set := rng.Perm(m)[:1+rng.Intn(m)]
			if c := p.Constraint[i]; c != Unconstrained && !slices.Contains(set, c) {
				set = append(set, c)
			}
			p.Allowed[i] = set
		}
	}
	return p
}

// BenchmarkValidateSiteSets times Validate's phased verdict at decision
// scale, 32 sites × 100k processes, on three shapes:
//   - regional: the first quarter restricted to sites 0–9 and the second
//     to sites 10–19, with capacity ⌈N/32⌉ + 1 per site;
//   - random-full: capacity exactly N/32, so every site ends full; process
//     i allows site i mod 32 plus up to three random others, in shuffled
//     order, which keeps it feasible by construction;
//   - dead-end: sites 0–15 are one full region whose processes allow all
//     16, each process of chain site k in 16–30 allows {k, k+1}, site 31's
//     allow only {31}, and the last 1,000 processes allow sites 0–16. The
//     only slack is 1,000 extra slots on site 31, so each of those needs a
//     chain through all of 16–31, and the region is a dead end.
//
// The one-at-a-time walk from the pins reaches the same verdicts but takes
// seconds to minutes on these shapes, which is why Validate uses phases.
func BenchmarkValidateSiteSets(b *testing.B) {
	const n, m = 100000, 32
	base := clusteredProblem(n, m, 1)
	shapes := []struct {
		name  string
		build func(p *Problem)
	}{
		{"regional", func(p *Problem) {
			p.Capacity = mat.NewIntVec(m, (n+m-1)/m+1)
			regions := [][]int{make([]int, 10), make([]int, 10)}
			for s := 0; s < 10; s++ {
				regions[0][s], regions[1][s] = s, 10+s
			}
			for i := 0; i < n/4; i++ {
				p.Allowed[i], p.Allowed[n/4+i] = regions[0], regions[1]
			}
		}},
		{"random-full", func(p *Problem) {
			p.Capacity = mat.NewIntVec(m, n/m)
			rng := stats.NewRand(1)
			for i := range p.Allowed {
				set := []int{i % m}
				for k := rng.Intn(4); k > 0; k-- {
					if s := rng.Intn(m); !slices.Contains(set, s) {
						set = append(set, s)
					}
				}
				rng.Shuffle(len(set), func(a, b int) { set[a], set[b] = set[b], set[a] })
				p.Allowed[i] = set
			}
		}},
		{"dead-end", func(p *Problem) {
			const slack = 1000
			region, last := make([]int, 16), make([]int, 17)
			for s := range last {
				last[s] = s
			}
			copy(region, last)
			p.Capacity = mat.NewIntVec(m, 0)
			p.Capacity[m-1] = slack
			for i := 0; i < n-slack; i++ {
				k := i % m
				p.Capacity[k]++
				switch {
				case k < 16:
					p.Allowed[i] = region
				case k < m-1:
					p.Allowed[i] = []int{k, k + 1}
				default:
					p.Allowed[i] = []int{k}
				}
			}
			for i := n - slack; i < n; i++ {
				p.Allowed[i] = last
			}
		}},
	}
	for _, sh := range shapes {
		p := *base
		p.Allowed = make([][]int, n)
		sh.build(&p)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := p.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
