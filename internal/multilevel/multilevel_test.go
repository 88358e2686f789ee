package multilevel

import (
	"math"
	"runtime"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
)

// testInstance builds a deterministic synthetic instance: a ring plus
// stride and butterfly edges (clustered structure coarsening can exploit),
// distance-shaped LT/BT over m sites, even capacities with slack, optional
// pins (every 7th vertex) and multi-site restrictions (every 5th vertex).
func testInstance(t testing.TB, n, m int, pins, siteSets bool) *Instance {
	t.Helper()
	g := comm.NewGraph(n)
	rng := stats.NewRand(7)
	for i := 0; i < n; i++ {
		g.AddTraffic(i, (i+1)%n, 4096, 8)
		if n >= 8 {
			g.AddTraffic(i, (i+n/4)%n, 1024, 2)
		}
		if rng.Intn(4) == 0 {
			g.AddTraffic(i, rng.Intn(n), 512, 1)
		}
	}
	lt := mat.NewSquare(m)
	bt := mat.NewSquare(m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				lt.Set(k, l, 0.0001)
				bt.Set(k, l, 1e9)
				continue
			}
			d := float64(k - l)
			if d < 0 {
				d = -d
			}
			lt.Set(k, l, 0.001+0.0005*d)
			bt.Set(k, l, 2e8/(1+d))
		}
	}
	capacity := make([]int, m)
	for j := range capacity {
		capacity[j] = (n+m-1)/m + 2
	}
	pin := make([]int, n)
	pinned := make([]int, m)
	for i := range pin {
		pin[i] = -1
		if pins && i%7 == 0 && pinned[i%m] < capacity[i%m] {
			pin[i] = i % m
			pinned[i%m]++
		}
	}
	var allowed [][]int
	if siteSets {
		allowed = make([][]int, n)
		for i := range allowed {
			if pin[i] < 0 && i%5 == 0 {
				allowed[i] = []int{i % m, (i + 1) % m}
			}
		}
	}
	// Contiguous site groups stand in for the K-means clustering (the
	// solver treats groups as opaque).
	k := 4
	if k > m {
		k = m
	}
	groups := make([][]int, k)
	for s := 0; s < m; s++ {
		gi := s * k / m
		groups[gi] = append(groups[gi], s)
	}
	return &Instance{
		G:        FromComm(g),
		LT:       lt,
		BT:       bt,
		Capacity: capacity,
		Pin:      pin,
		Allowed:  allowed,
		Groups:   groups,
	}
}

func TestFromCommPreservesTotals(t *testing.T) {
	in := testInstance(t, 64, 4, false, false)
	if in.G.TotalWeight() != 64 {
		t.Fatalf("total weight %d, want 64", in.G.TotalWeight())
	}
	for v := 0; v < in.G.N(); v++ {
		if in.G.Weight(v) != 1 {
			t.Fatalf("level-0 vertex %d has weight %d", v, in.G.Weight(v))
		}
	}
}

func TestCoarsenConservesVolume(t *testing.T) {
	in := testInstance(t, 512, 8, true, true)
	h := coarsen(in)
	if len(h) < 2 {
		t.Fatalf("expected at least 2 levels, got %d", len(h))
	}
	vol0, msgs0, w0 := h[0].g.TotalVolume(), h[0].g.TotalMsgs(), h[0].g.TotalWeight()
	for l, lv := range h {
		if got := lv.g.TotalWeight(); got != w0 {
			t.Errorf("level %d total weight %d, want %d", l, got, w0)
		}
		if got := lv.g.TotalVolume(); math.Abs(got-vol0) > 1e-6*vol0 {
			t.Errorf("level %d total volume %g, want %g", l, got, vol0)
		}
		if got := lv.g.TotalMsgs(); math.Abs(got-msgs0) > 1e-6*msgs0 {
			t.Errorf("level %d total msgs %g, want %g", l, got, msgs0)
		}
	}
}

func TestCoarsenRespectsConstraints(t *testing.T) {
	n, m := 512, 8
	in := testInstance(t, n, m, true, true)
	_, maxWeight := coarsenLimits(n, m)
	h := coarsen(in)
	for l := 0; l+1 < len(h); l++ {
		fine, coarse := h[l], h[l+1]
		for v := 0; v < fine.g.n; v++ {
			c := fine.toCoarse[v]
			if fine.pin[v] != coarse.pin[c] {
				t.Fatalf("level %d vertex %d pin %d became %d after contraction", l, v, fine.pin[v], coarse.pin[c])
			}
			// The coarse allowed set must be at least as restrictive:
			// every coarse-admissible site is fine-admissible.
			for s := 0; s < m; s++ {
				if allowedOn(coarse.pin[c], coarse.allowed[c], s) && !allowedOn(fine.pin[v], fine.allowed[v], s) {
					t.Fatalf("level %d vertex %d: contraction widened admissibility to site %d", l, v, s)
				}
			}
		}
		for c := 0; c < coarse.g.n; c++ {
			if coarse.g.weight[c] > maxWeight && coarse.g.weight[c] > 2 {
				t.Fatalf("level %d coarse vertex %d weight %d exceeds max %d", l+1, c, coarse.g.weight[c], maxWeight)
			}
			if p := coarse.pin[c]; p >= 0 && coarse.g.weight[c] > in.Capacity[p] {
				t.Fatalf("pinned coarse vertex %d weight %d exceeds capacity of site %d", c, coarse.g.weight[c], p)
			}
		}
	}
}

// checkFeasible asserts a level-0 placement satisfies capacities, pins and
// allowed sets.
func checkFeasible(t *testing.T, in *Instance, pl []int) {
	t.Helper()
	load := make([]int, in.M())
	for v, s := range pl {
		if s < 0 || s >= in.M() {
			t.Fatalf("vertex %d placed at invalid site %d", v, s)
		}
		load[s] += in.G.Weight(v)
		if p := in.Pin[v]; p >= 0 && s != p {
			t.Fatalf("vertex %d placed at %d, pinned to %d", v, s, p)
		}
		if len(in.Allowed) > 0 && !allowedOn(in.Pin[v], in.Allowed[v], s) {
			t.Fatalf("vertex %d placed at %d, allowed only %v", v, s, in.Allowed[v])
		}
	}
	for j, l := range load {
		if l > in.Capacity[j] {
			t.Fatalf("site %d load %d exceeds capacity %d", j, l, in.Capacity[j])
		}
	}
}

// projectedFeasible asserts that every intermediate level's placement,
// projected down to level 0, is feasible — the coarsening invariant the
// ISSUE requires.
func TestProjectionNeverViolatesConstraints(t *testing.T) {
	n, m := 512, 8
	in := testInstance(t, n, m, true, true)
	h := coarsen(in)
	// Mirror Solve's ladder: map at the coarsest level that admits a
	// feasible fill.
	li := len(h) - 1
	var pl []int
	for {
		lv := h[li]
		var ok bool
		pl, _, ok = SearchOrders(in.Groups, maxOrders, 1, func() Eval { return newInitialMapper(in, lv).eval })
		if ok {
			break
		}
		if li == 0 {
			t.Fatal("initial map failed at every level")
		}
		li--
	}
	if li == 0 {
		t.Skip("initial map only feasible at level 0; no projection to check")
	}
	for l := li; l > 0; l-- {
		// Check the coarse placement's feasibility at its own level.
		lv := h[l]
		load := make([]int, m)
		for v, s := range pl {
			load[s] += lv.g.weight[v]
			if p := lv.pin[v]; p >= 0 && s != p {
				t.Fatalf("level %d vertex %d placed at %d, pinned to %d", l, v, s, p)
			}
			if !allowedOn(lv.pin[v], lv.allowed[v], s) {
				t.Fatalf("level %d vertex %d placed at inadmissible site %d", l, v, s)
			}
		}
		for j, ld := range load {
			if ld > in.Capacity[j] {
				t.Fatalf("level %d site %d load %d exceeds capacity %d", l, j, ld, in.Capacity[j])
			}
		}
		pl = project(h[l-1], pl)
	}
	checkFeasible(t, in, pl)
}

func TestSolveFeasible(t *testing.T) {
	for _, tc := range []struct {
		name           string
		pins, siteSets bool
	}{
		{"plain", false, false},
		{"pins", true, false},
		{"pins+sets", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := testInstance(t, 600, 8, tc.pins, tc.siteSets)
			pl, st, err := Solve(in, Options{Workers: 1})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if st.Levels < 2 {
				t.Errorf("expected a real hierarchy, got %d levels", st.Levels)
			}
			checkFeasible(t, in, pl)
		})
	}
}

func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	// The second instance splits 16 sites into κ = 7 groups, so the
	// initial map searches only the first maxOrders of the 7! orders.
	kappa7 := testInstance(t, 600, 16, true, true)
	kappa7.Groups = make([][]int, 7)
	for s := 0; s < 16; s++ {
		kappa7.Groups[s*7/16] = append(kappa7.Groups[s*7/16], s)
	}
	for _, in := range []*Instance{testInstance(t, 600, 8, true, true), kappa7} {
		k := len(in.Groups)
		base, _, err := Solve(in, Options{Workers: 1})
		if err != nil {
			t.Fatalf("κ=%d Solve(workers=1): %v", k, err)
		}
		for _, w := range []int{2, 3, runtime.GOMAXPROCS(0)} {
			pl, _, err := Solve(in, Options{Workers: w})
			if err != nil {
				t.Fatalf("κ=%d Solve(workers=%d): %v", k, w, err)
			}
			if len(pl) != len(base) {
				t.Fatalf("κ=%d workers=%d: placement length %d, want %d", k, w, len(pl), len(base))
			}
			for v := range pl {
				if pl[v] != base[v] {
					t.Fatalf("κ=%d workers=%d: placement diverges at vertex %d (%d vs %d)", k, w, v, pl[v], base[v])
				}
			}
			if c1, c2 := in.Cost(base), in.Cost(pl); math.Float64bits(c1.Float()) != math.Float64bits(c2.Float()) {
				t.Fatalf("κ=%d workers=%d: cost differs bitwise (%v vs %v)", k, w, c1, c2)
			}
		}
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	in := testInstance(t, 256, 8, false, false)
	n, m := in.G.N(), in.M()
	pl := make([]int, n)
	for v := range pl {
		pl[v] = (v * m) / n // contiguous blocks, trivially feasible
	}
	before := in.Cost(pl)
	if err := Refine(in, pl, Options{Workers: 2}); err != nil {
		t.Fatalf("Refine: %v", err)
	}
	after := in.Cost(pl)
	if after > before {
		t.Fatalf("refinement worsened cost: %v -> %v", before, after)
	}
	checkFeasible(t, in, pl)
}

func TestSolveImprovesOnRoundRobin(t *testing.T) {
	in := testInstance(t, 512, 8, false, false)
	pl, _, err := Solve(in, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	rr := make([]int, in.G.N())
	for v := range rr {
		rr[v] = v % in.M() // scatter the ring across all sites
	}
	if got, naive := in.Cost(pl), in.Cost(rr); got >= naive {
		t.Fatalf("multilevel cost %v not better than round-robin %v", got, naive)
	}
}

func TestProposeRangeDoesNotAllocate(t *testing.T) {
	in := testInstance(t, 256, 8, false, false)
	lv := &level{g: in.G, pin: in.Pin, allowed: normalizeAllowed(in.Allowed, in.G.n)}
	r := newRefiner(in, 1, 1)
	r.attach(lv)
	pl := make([]int, in.G.N())
	for v := range pl {
		pl[v] = (v * in.M()) / in.G.N()
	}
	for i := range r.load {
		r.load[i] = 0
	}
	for v, s := range pl {
		r.load[s] += in.G.Weight(v)
	}
	tol := RefineTol(in.Cost(pl))
	// Grow the buffer to its high-water mark before measuring.
	r.bufs[0] = r.proposeRange(pl, 0, in.G.N(), tol, r.bufs[0][:0])
	allocs := testing.AllocsPerRun(50, func() {
		r.bufs[0] = r.proposeRange(pl, 0, in.G.N(), tol, r.bufs[0][:0])
	})
	if allocs != 0 {
		t.Fatalf("proposeRange allocates %.1f times per sweep, want 0", allocs)
	}
}
