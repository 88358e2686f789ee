package multilevel

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
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
	if _, _, w := totals(in.G); w != 64 {
		t.Fatalf("total weight %d, want 64", w)
	}
	for v := 0; v < in.G.n; v++ {
		if in.G.weight[v] != 1 {
			t.Fatalf("level-0 vertex %d has weight %d", v, in.G.weight[v])
		}
	}
}

// totals returns the communication volume and message count g represents
// (directed edges once plus all absorbed intra-vertex traffic) and the
// number of original processes merged into it. Contraction preserves all
// three exactly.
func totals(g *Graph) (vol, msgs float64, weight int) {
	for _, e := range g.adj.Out {
		vol += e.Volume
		msgs += e.Msgs
	}
	for v := 0; v < g.n; v++ {
		vol += g.selfVol[v]
		msgs += g.selfMsgs[v]
		weight += g.weight[v]
	}
	return vol, msgs, weight
}

func TestCoarsenConservesVolume(t *testing.T) {
	in := testInstance(t, 512, 8, true, true)
	h := coarsen(in)
	if len(h) < 2 {
		t.Fatalf("expected at least 2 levels, got %d", len(h))
	}
	vol0, msgs0, w0 := totals(h[0].g)
	for l, lv := range h {
		vol, msgs, w := totals(lv.g)
		if w != w0 {
			t.Errorf("level %d total weight %d, want %d", l, w, w0)
		}
		if math.Abs(vol-vol0) > 1e-6*vol0 {
			t.Errorf("level %d total volume %g, want %g", l, vol, vol0)
		}
		if math.Abs(msgs-msgs0) > 1e-6*msgs0 {
			t.Errorf("level %d total msgs %g, want %g", l, msgs, msgs0)
		}
	}
}

// randomInstance is a random small instance over n vertices and m sites:
// one to four out-edges per vertex with random volumes and at least one
// message each, random positive LT/BT, capacities with slack, and random
// pins and two-site allowed sets.
func randomInstance(rng *rand.Rand, n, m int) *Instance {
	g := comm.NewGraph(n)
	for i := 0; i < n; i++ {
		for d := 1 + rng.Intn(4); d > 0; d-- {
			g.AddTraffic(i, rng.Intn(n), 1e6*rng.Float64(), float64(1+rng.Intn(20)))
		}
	}
	lt, bt := mat.NewSquare(m), mat.NewSquare(m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			lt.Set(k, l, 1e-4+0.1*rng.Float64())
			bt.Set(k, l, 1e6+1e9*rng.Float64())
		}
	}
	capacity := make([]int, m)
	for j := range capacity {
		capacity[j] = (n+m-1)/m + rng.Intn(4)
	}
	pin := make([]int, n)
	pinned := make([]int, m)
	allowed := make([][]int, n)
	for v := range pin {
		pin[v] = -1
		switch s := rng.Intn(m); rng.Intn(8) {
		case 0:
			if pinned[s] < capacity[s] {
				pin[v] = s
				pinned[s]++
			}
		case 1:
			allowed[v] = []int{s, rng.Intn(m)}
		}
	}
	return &Instance{G: FromComm(g), LT: lt, BT: bt, Capacity: capacity, Pin: pin, Allowed: allowed}
}

// Property: at every level of the hierarchy, each CSR's in rows are
// exactly the transpose of its out rows, and a random placement of the
// level's vertices costs what its projection to level 0 costs. Checked on
// testInstance with pins and site sets, and on random small instances.
//
// The two costs add the same non-negative terms: linkCost is linear in
// (volume, msgs), so pricing a contracted edge or an absorbed self
// traffic prices the fine edges summed into it. Only the grouping and
// order of the additions differ. A sum of k non-negative terms in any
// order lies within (k−1)·2⁻⁵³ of the exact sum, relative to it, and each
// term adds a few roundings of its own; with at most a few thousand terms
// per instance the costs agree to better than 1e-12. The bound 1e-9
// leaves room above that, while an edge lost or counted twice still
// fails it: every edge carries at least one message, so its term is
// above 1e-8 of an instance's cost.
func TestCoarseCostEqualsProjectedCost(t *testing.T) {
	const relTol = 1e-9
	rng := stats.NewRand(11)
	instances := []*Instance{testInstance(t, 512, 8, true, true)}
	for i := 0; i < 40; i++ {
		instances = append(instances, randomInstance(rng, 33+rng.Intn(160), 2+rng.Intn(5)))
	}
	coarseLevels := 0
	for i, in := range instances {
		h := coarsen(in)
		coarseLevels += len(h) - 1
		for l, lv := range h {
			checkTranspose(t, lv.g.adj)
			pl := make([]int, lv.g.n)
			for v := range pl {
				pl[v] = rng.Intn(in.M())
			}
			coarse := in.cost(lv.g, pl)
			for k := l; k > 0; k-- {
				pl = project(h[k-1], pl)
			}
			if fine := in.cost(in.G, pl); math.Abs(float64(coarse-fine)) > relTol*float64(fine) {
				t.Fatalf("instance %d level %d: cost %v, projected to level 0 %v", i, l, coarse, fine)
			}
		}
	}
	if coarseLevels < len(instances) {
		t.Fatalf("%d instances coarsened to only %d levels beyond level 0", len(instances), coarseLevels)
	}
}

// sameEdgeBits reports whether two edges have the same peer and the same
// traffic bits.
func sameEdgeBits(a, b comm.Edge) bool {
	return a.Peer == b.Peer && math.Float64bits(a.Volume) == math.Float64bits(b.Volume) && math.Float64bits(a.Msgs) == math.Float64bits(b.Msgs)
}

// checkTranspose fails unless c's out rows are strictly ascending by peer
// and free of self-traffic, and its in rows hold exactly their transpose:
// row j lists every edge i→j, ascending by sender, with the same bits.
func checkTranspose(t *testing.T, c *comm.CSR) {
	t.Helper()
	n := len(c.OutIdx) - 1
	rows := make([][]comm.Edge, n)
	for i := 0; i < n; i++ {
		out := c.Out[c.OutIdx[i]:c.OutIdx[i+1]]
		for k, e := range out {
			if e.Peer == i || (k > 0 && out[k-1].Peer >= e.Peer) {
				t.Fatalf("out row %d is not strictly ascending without self-traffic: %v", i, out)
			}
			rows[e.Peer] = append(rows[e.Peer], comm.Edge{Peer: i, Volume: e.Volume, Msgs: e.Msgs})
		}
	}
	if len(c.InIdx) != n+1 || c.InIdx[n] != len(c.In) || len(c.In) != len(c.Out) {
		t.Fatalf("in index %d entries ending at %d over %d in edges, want %d entries over %d", len(c.InIdx), c.InIdx[len(c.InIdx)-1], len(c.In), n+1, len(c.Out))
	}
	for j, want := range rows {
		if got := c.In[c.InIdx[j]:c.InIdx[j+1]]; !slices.EqualFunc(got, want, sameEdgeBits) {
			t.Fatalf("in row %d = %v, want the transpose %v", j, got, want)
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
		load[s] += in.G.weight[v]
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
		table := newFillTable(in, h[li])
		var ok bool
		pl, _, ok = SearchOrders(table, maxOrders, 1, func(f *Fill) Eval { return newInitialMapper(f).eval })
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

// TestInitialMapperFillsOncePerClass pins the initial map's share of one
// fill per key class: on the served 512-process shape, four equal
// capacities in κ = 4 one-site groups, all 24 orders form one symmetric
// class, and the evaluator fills its first order and replays the other 23
// and the re-run of the best, on level 0 and on the coarsest level alike.
// It must return the rank, cost and placement of a loop that fills every
// order in full. Solve retries the initial map one level finer on an
// infeasible level, so a lost replay multiplies across every level it
// retries.
func TestInitialMapperFillsOncePerClass(t *testing.T) {
	in := served512(t)
	h := coarsen(in)
	for _, lv := range []*level{h[0], h[len(h)-1]} {
		table := newFillTable(in, lv)
		classes := table.keyClasses(stats.FactorialInt(len(in.Groups)))
		if len(classes) != 1 || len(classes[0]) != 24 {
			t.Fatalf("level with %d vertices: %d key classes, want one of 24 orders", lv.g.n, len(classes))
		}
		im := newInitialMapper(NewFill(table))
		rank, pl, cost, ok := im.eval(classes[0])
		if im.fullRuns != 1 {
			t.Errorf("level with %d vertices: %d full fills, want 1", lv.g.n, im.fullRuns)
		}

		ref := newInitialMapper(NewFill(table))
		want, wantCost := -1, units.Cost(0)
		for _, r := range classes[0] {
			if c, ok := ref.run(r, false); ok && (want < 0 || c < wantCost) {
				want, wantCost = r, c
			}
		}
		if !ok || want < 0 {
			t.Fatalf("level with %d vertices: eval ok %v, fill-every-order ok %v", lv.g.n, ok, want >= 0)
		}
		ref.run(want, false)
		if rank != want || math.Float64bits(cost.Float()) != math.Float64bits(wantCost.Float()) || !slices.Equal(pl, ref.pl) {
			t.Errorf("level with %d vertices: eval gives rank %d cost %v, fill-every-order rank %d cost %v (placements equal: %v)",
				lv.g.n, rank, cost, want, wantCost, slices.Equal(pl, ref.pl))
		}
	}
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
	n, m := in.G.n, in.M()
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
	rr := make([]int, in.G.n)
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
	pl := make([]int, in.G.n)
	for v := range pl {
		pl[v] = (v * in.M()) / in.G.n
	}
	for i := range r.load {
		r.load[i] = 0
	}
	for v, s := range pl {
		r.load[s] += in.G.weight[v]
	}
	tol := RefineTol(in.Cost(pl))
	// Grow the buffer to its high-water mark before measuring.
	r.bufs[0] = r.proposeRange(pl, 0, in.G.n, tol, r.bufs[0][:0])
	allocs := testing.AllocsPerRun(50, func() {
		r.bufs[0] = r.proposeRange(pl, 0, in.G.n, tol, r.bufs[0][:0])
	})
	if allocs != 0 {
		t.Fatalf("proposeRange allocates %.1f times per sweep, want 0", allocs)
	}
}
