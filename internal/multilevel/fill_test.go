package multilevel

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// clusteredInstance is the level-0 instance of core's clusteredProblem
// test fixture: cliques of four with heavy asymmetric traffic, light
// inter-clique links, and distance-shaped LT/BT over m sites on a line. It
// keeps BenchmarkAllocFill on the instance its recorded ns/op was taken
// on.
func clusteredInstance(n, m int, seed int64) *Instance {
	rng := stats.NewRand(seed)
	g := comm.NewGraph(n)
	for base := 0; base+4 <= n; base += 4 {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				vol := 1e6 * (1 + rng.Float64())
				g.AddTraffic(base+i, base+j, vol, 10)
				g.AddTraffic(base+j, base+i, vol/2, 5)
			}
		}
		if base > 0 {
			g.AddTraffic(base, base-1, 1e3, 1)
		}
	}
	lt, bt := mat.NewSquare(m), mat.NewSquare(m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				lt.Set(k, l, 0.001)
				bt.Set(k, l, 100e6)
				continue
			}
			d := math.Abs(float64(k - l))
			lt.Set(k, l, 0.05*d)
			bt.Set(k, l, 20e6/d)
		}
	}
	return &Instance{
		G:        FromComm(g),
		LT:       lt,
		BT:       bt,
		Capacity: mat.NewIntVec(m, (n+m-1)/m),
		Pin:      mat.NewIntVec(n, -1),
	}
}

var benchFill []int

// BenchmarkAllocFill measures one full greedy fill, the per-order body of
// the GeoMapper order search (recorded in results/BENCH_alloc.json). Every
// order of this unpinned, equal-capacity instance has one key, so each
// iteration drops the recorded fill first to keep Run from replaying it.
func BenchmarkAllocFill(b *testing.B) {
	f := NewFill(clusteredInstance(64, 4, 11))
	ordered := [][]int{{0}, {1}, {2}, {3}}
	benchFill = f.Run(ordered) // warm members to their high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.recorded = false
		benchFill = f.Run(ordered)
	}
}

// served512 is the shape of a served 512-process edge-list request: the
// ring + stride + butterfly pattern over the paper's four EC2 regions at
// 160 nodes each, with no pins, in κ = 4 site groups of one site each.
func served512(tb testing.TB) *Instance {
	const n = 512
	g := comm.NewGraph(n)
	rng := stats.NewRand(1)
	for i := 0; i < n; i++ {
		g.AddTraffic(i, (i+1)%n, 2e6*(1+rng.Float64()), 20)
		g.AddTraffic(i, (i+n/4)%n, 5e5*(1+rng.Float64()), 8)
		if j := i ^ 1<<uint(i%10); j < n && j != i {
			g.AddTraffic(i, j, 2e5*(1+rng.Float64()), 4)
		}
	}
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions, 160, netmodel.Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return &Instance{
		G:        FromComm(g),
		LT:       cloud.LT,
		BT:       cloud.BT,
		Capacity: cloud.Capacity(),
		Pin:      mat.NewIntVec(n, -1),
		Groups:   [][]int{{0}, {1}, {2}, {3}},
	}
}

// BenchmarkAllocFill512 measures one full greedy fill at the shape of a
// served 512-process request, for one order of its site groups, dropping
// the recorded fill in every iteration as BenchmarkAllocFill does.
func BenchmarkAllocFill512(b *testing.B) {
	f := NewFill(served512(b))
	ordered := [][]int{{2}, {0}, {3}, {1}}
	benchFill = f.Run(ordered) // warm members and frontier to their high-water marks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.recorded = false
		benchFill = f.Run(ordered)
	}
}

// BenchmarkAllocFill512Shared measures what the other 23 orders of the
// served 512-process search cost: a replay of the recorded fill onto a
// relabelled order with the same capacity sequence.
func BenchmarkAllocFill512Shared(b *testing.B) {
	f := NewFill(served512(b))
	orders := [2][][]int{{{2}, {0}, {3}, {1}}, {{1}, {3}, {0}, {2}}}
	benchFill = f.Run(orders[0]) // the full fill the replays share
	benchFill = f.Run(orders[1]) // warm every site's members to its high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFill = f.Run(orders[i%2])
	}
	if f.fullRuns != 1 {
		b.Fatalf("%d full fills, want 1", f.fullRuns)
	}
}

// TestFillSharesSymmetricOrders checks when SearchOrders' fills replay:
// on the unpinned, equal-capacity served instance every order has one
// key, so each worker fills once; a pinned vertex or an allowed-site set
// turns the replay off; with two capacity values a worker fills again
// exactly when an order's capacity sequence differs from the previous
// order's. Every search must return the placement of a search whose
// fills never replay.
func TestFillSharesSymmetricOrders(t *testing.T) {
	search := func(in *Instance, workers int, share bool) ([]int, int) {
		var mu sync.Mutex
		var fills []*Fill
		best, _, ok := SearchOrders(in.Groups, math.MaxInt, workers, func() Eval {
			f := NewFill(in)
			mu.Lock()
			fills = append(fills, f)
			mu.Unlock()
			return func(ordered [][]int) ([]int, units.Cost, bool) {
				f.recorded = f.recorded && share
				pl := f.Run(ordered)
				if slices.Contains(pl, -1) {
					return nil, 0, false // a site set stranded a vertex
				}
				return pl, in.Cost(pl), true
			}
		})
		if !ok {
			t.Fatal("no feasible order")
		}
		full := 0
		for _, f := range fills {
			full += f.fullRuns
		}
		return best, full
	}
	check := func(name string, in *Instance, workers, wantFull int) {
		t.Helper()
		got, full := search(in, workers, true)
		if full != wantFull {
			t.Errorf("%s, workers=%d: %d full fills, want %d", name, workers, full, wantFull)
		}
		if want, _ := search(in, workers, false); !slices.Equal(got, want) {
			t.Errorf("%s, workers=%d: shared fills place %v, full fills %v", name, workers, got, want)
		}
	}

	in := served512(t)
	check("symmetric", in, 1, 1)
	check("symmetric", in, 2, 2)
	one, _ := search(in, 1, true)
	if two, _ := search(in, 2, true); !slices.Equal(one, two) {
		t.Error("symmetric: placements differ between 1 and 2 workers")
	}

	pinned := served512(t)
	pinned.Pin[0] = 3
	check("one pinned vertex", pinned, 1, 24)
	restricted := served512(t)
	restricted.Allowed = make([][]int, restricted.G.n)
	restricted.Allowed[5] = []int{0, 2}
	check("one site set", restricted, 1, 24)

	// Two capacity values: the predicted count is one fill for the first
	// order plus one for every order whose key differs from its
	// predecessor's (one site per group, so the key is the capacities in
	// group order).
	twoValues := served512(t)
	twoValues.Capacity = []int{160, 200, 160, 200}
	want, prev := 0, ""
	stats.PermutationRange(4, 0, 24, func(_ int, perm []int) bool {
		key := fmt.Sprint(twoValues.Capacity[perm[0]], twoValues.Capacity[perm[1]], twoValues.Capacity[perm[2]], twoValues.Capacity[perm[3]])
		if key != prev {
			want++
		}
		prev = key
		return true
	})
	if want <= 1 || want >= 24 {
		t.Fatalf("key rule predicts %d full fills; the fixture should share some orders and not others", want)
	}
	check("two capacity values", twoValues, 1, want)
}

// TestFillDoesNotAllocatePerOrder locks in the fill's no-reallocation
// contract across the κ! loop (the groupDone scratch used to be allocated
// on every order), with pins and site sets on the paths.
func TestFillDoesNotAllocatePerOrder(t *testing.T) {
	in := testInstance(t, 64, 8, true, true)
	f := NewFill(in)
	ordered := [][]int{in.Groups[2], in.Groups[0], in.Groups[3], in.Groups[1]}
	f.Run(ordered) // warm up: members slices grow to their high-water mark
	if allocs := testing.AllocsPerRun(50, func() { f.Run(ordered) }); allocs != 0 {
		t.Errorf("fill allocates %.0f objects per order, want 0", allocs)
	}
}

// A single-site instance has no inter-site pair, so the scalarization
// falls back to the intra-site latency and bandwidth.
func TestReferenceWeightsSingleSite(t *testing.T) {
	g := comm.NewGraph(2)
	g.AddTraffic(0, 1, 100, 1)
	in := &Instance{
		G:        FromComm(g),
		LT:       mat.MustFrom([][]float64{{0.5}}),
		BT:       mat.MustFrom([][]float64{{2e6}}),
		Capacity: []int{2},
		Pin:      []int{-1, -1},
	}
	if ref := in.refWeights(); ref.lat != 0.5 || ref.bw != 2e6 {
		t.Errorf("refWeights = %v, %v; want intra values", ref.lat, ref.bw)
	}
}

// TestSearchOrdersMatchesSerialScan checks the shared order search against
// a brute-force serial scan of the ranks [0, min(limit, κ!)): the same
// placement and cost at every worker count, including more workers than
// ranks. The evaluator prices an order by a coarse function of its
// permutation, so many orders tie on cost and the lowest rank must win,
// and it reports every fifth code infeasible; an evaluator that rejects
// every order must leave the search not-ok.
func TestSearchOrdersMatchesSerialScan(t *testing.T) {
	const k = 4
	groups := make([][]int, k)
	for i := range groups {
		groups[i] = []int{i}
	}
	code := func(ordered [][]int) int {
		c := 0
		for i, g := range ordered {
			c += (i + 1) * g[0]
		}
		return c
	}
	newEval := func(feasible func(c int) bool) func() Eval {
		return func() Eval {
			pl := make([]int, k)
			return func(ordered [][]int) ([]int, units.Cost, bool) {
				c := code(ordered)
				if !feasible(c) {
					return nil, 0, false
				}
				for i, g := range ordered {
					pl[i] = g[0]
				}
				return pl, units.Cost(c % 4), true
			}
		}
	}
	someInfeasible := func(c int) bool { return c%5 != 0 }
	total := stats.FactorialInt(k)
	for _, limit := range []int{1, 5, total, 720} {
		// Brute force: the first strict minimum in ascending rank order.
		var want []int
		wantCost := units.Cost(math.Inf(1))
		eval := newEval(someInfeasible)()
		for rank := 0; rank < min(limit, total); rank++ {
			perm := stats.PermutationUnrank(k, rank)
			ordered := make([][]int, k)
			for i, gi := range perm {
				ordered[i] = groups[gi]
			}
			if pl, c, ok := eval(ordered); ok && c < wantCost {
				want, wantCost = append([]int(nil), pl...), c
			}
		}
		for _, workers := range []int{1, 2, 3, 8, limit + 1} {
			got, cost, ok := SearchOrders(groups, limit, workers, newEval(someInfeasible))
			if want == nil {
				if ok {
					t.Errorf("limit=%d workers=%d: found %v, want no feasible order", limit, workers, got)
				}
				continue
			}
			if !ok || cost != wantCost || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("limit=%d workers=%d: got %v cost %v ok %v, want %v cost %v", limit, workers, got, cost, ok, want, wantCost)
			}
			if _, _, ok := SearchOrders(groups, limit, workers, newEval(func(int) bool { return false })); ok {
				t.Errorf("limit=%d workers=%d: all-infeasible search reported ok", limit, workers)
			}
		}
	}
}

// referenceRun is the fill's pick rule written as the plain O(N²) scan
// of Algorithm 1: a full pass over all vertices for every seed and every
// growth step. Run must return the same placement for every order.
func referenceRun(f *Fill, orderedGroups [][]int) []int {
	g := f.lv.g
	n := g.n
	weight, pin, allowed := g.weight, f.lv.pin, f.lv.allowed
	for i := 0; i < n; i++ {
		f.selected[i] = false
		f.pl[i] = -1
	}
	copy(f.avail, f.in.Capacity)
	for s := range f.members {
		f.members[s] = f.members[s][:0]
	}
	remaining := n
	for v, p := range pin {
		if p >= 0 {
			f.place(v, p)
			remaining--
		}
	}
	for _, group := range orderedGroups {
		if remaining == 0 {
			break
		}
		done := make([]bool, len(group))
		for range group {
			site, bestAvail, bestIdx := -1, -1, -1
			for idx, s := range group {
				if !done[idx] && f.avail[s] > bestAvail {
					site, bestAvail, bestIdx = s, f.avail[s], idx
				}
			}
			if site == -1 {
				break
			}
			done[bestIdx] = true
			if f.avail[site] <= 0 {
				continue
			}
			if remaining == 0 {
				break
			}
			seed := -1
			bestQ := units.Cost(math.Inf(-1))
			for v := 0; v < n; v++ {
				if !f.selected[v] && f.quantity[v] > bestQ && weight[v] <= f.avail[site] && allowedOn(pin[v], allowed[v], site) {
					seed, bestQ = v, f.quantity[v]
				}
			}
			if seed == -1 {
				continue
			}
			f.place(seed, site)
			remaining--
			f.rebuildAffinity(site)
			for f.avail[site] > 0 && remaining > 0 {
				next := -1
				bestA := units.Cost(math.Inf(-1))
				for v := 0; v < n; v++ {
					if f.selected[v] || weight[v] > f.avail[site] || !allowedOn(pin[v], allowed[v], site) {
						continue
					}
					a := f.affinity[v]
					if a > bestA || (a == bestA && next >= 0 && f.quantity[v] > f.quantity[next]) {
						next, bestA = v, a
					}
				}
				if next == -1 {
					break
				}
				f.place(next, site)
				remaining--
				f.addAffinity(next)
			}
		}
	}
	return f.pl
}

// fillCase is a random small fill instance. Every instance carries edges
// with only msgs and edges with only volume, and volumes drawn from a few
// values so quantities and affinities tie; the zero mode makes one of the
// two edge kinds weightless on the reference link (0: neither, 1: zero
// latency, 2: infinite bandwidth), so touched vertices can sit at zero
// affinity beside untouched ones. An instance carries pins and site sets
// unless symmetric is set; a symmetric one draws its capacities from at
// most two values instead, so Run replays on some consecutive orders and
// fills again on others.
func fillCase(seed int64, n, m, zero int, symmetric bool) *Instance {
	rng := stats.NewRand(seed)
	g := comm.NewGraph(n)
	for e := rng.Intn(3 * n); e > 0; e-- {
		src, dst := rng.Intn(n), rng.Intn(n)
		vol, msgs := float64(rng.Intn(3))*1e3, float64(rng.Intn(3))
		switch rng.Intn(3) {
		case 0:
			vol = 0
		case 1:
			msgs = 0
		}
		g.AddTraffic(src, dst, vol, msgs)
	}
	lt, bt := mat.NewSquare(m), mat.NewSquare(m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			lat, bw := 0.001*float64(1+rng.Intn(3)), 1e6*float64(1+rng.Intn(3))
			switch zero {
			case 1:
				lat = 0
			case 2:
				bw = math.Inf(1)
			}
			lt.Set(k, l, lat)
			bt.Set(k, l, bw)
		}
	}
	capacity := make([]int, m)
	pin := mat.NewIntVec(n, -1)
	allowed := make([][]int, n)
	if symmetric {
		values := [2]int{1 + rng.Intn((n+m-1)/m+2), 1 + rng.Intn((n+m-1)/m+2)}
		for s := range capacity {
			capacity[s] = values[rng.Intn(2)]
		}
	} else {
		for s := range capacity {
			capacity[s] = 1 + rng.Intn((n+m-1)/m+2)
		}
		pinned := make([]int, m)
		for v := range pin {
			switch s := rng.Intn(m); rng.Intn(5) {
			case 0:
				if pinned[s] < capacity[s] {
					pin[v] = s
					pinned[s]++
				}
			case 1:
				allowed[v] = []int{s, rng.Intn(m)}
			}
		}
	}
	// A random partition of the sites into at most four non-empty groups.
	sites := rng.Perm(m)
	groups := make([][]int, min(m, 1+rng.Intn(4)))
	for i, s := range sites {
		gi := i
		if i >= len(groups) {
			gi = rng.Intn(len(groups))
		}
		groups[gi] = append(groups[gi], s)
	}
	return &Instance{G: FromComm(g), LT: lt, BT: bt, Capacity: capacity, Pin: pin, Allowed: allowed, Groups: groups}
}

// checkFillMatchesReference runs Run and referenceRun on every order of
// in's groups, on level 0 and on one coarsened level whose super-vertices
// weigh up to three processes, and fails on the first order where the
// placement, the remaining room or a site's members (in order) differ:
// Run may have replayed an earlier order's fill, and the initial map's
// leftover repair reads all three.
func checkFillMatchesReference(t *testing.T, in *Instance) {
	t.Helper()
	l0 := &level{g: in.G, pin: in.Pin, allowed: normalizeAllowed(in.Allowed, in.G.n)}
	mt := &matcher{in: in, ref: in.refWeights(), maxW: 3}
	match, _ := mt.match(l0)
	for _, lv := range []*level{l0, contract(l0, match)} {
		f, ref := newFill(in, lv), newFill(in, lv)
		ordered := make([][]int, len(in.Groups))
		stats.PermutationRange(len(in.Groups), 0, stats.FactorialInt(len(in.Groups)), func(rank int, perm []int) bool {
			for i, gi := range perm {
				ordered[i] = in.Groups[gi]
			}
			got, want := f.Run(ordered), referenceRun(ref, ordered)
			if !slices.Equal(got, want) {
				t.Fatalf("level with %d vertices, order rank %d: Run = %v, reference scan = %v", lv.g.n, rank, got, want)
			}
			if !slices.Equal(f.avail, ref.avail) {
				t.Fatalf("level with %d vertices, order rank %d: avail = %v, reference scan = %v", lv.g.n, rank, f.avail, ref.avail)
			}
			for s := range f.members {
				if !slices.Equal(f.members[s], ref.members[s]) {
					t.Fatalf("level with %d vertices, order rank %d: site %d members = %v, reference scan = %v", lv.g.n, rank, s, f.members[s], ref.members[s])
				}
			}
			return true
		})
	}
}

// TestFillMatchesReference checks the heap-driven fill against the O(N²)
// reference scan on random small instances in every zero mode, with and
// without pins and site sets, and on the fixtures the other fill tests
// use.
func TestFillMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		n, m, zero := 1+int(seed*7%40), 1+int(seed%6), int(seed%3)
		t.Run(fmt.Sprintf("seed=%d/n=%d/m=%d/zero=%d", seed, n, m, zero), func(t *testing.T) {
			checkFillMatchesReference(t, fillCase(seed, n, m, zero, false))
		})
		t.Run(fmt.Sprintf("symmetric/seed=%d/n=%d/m=%d/zero=%d", seed, n, m, zero), func(t *testing.T) {
			checkFillMatchesReference(t, fillCase(seed, n, m, zero, true))
		})
	}
	t.Run("testInstance", func(t *testing.T) { checkFillMatchesReference(t, testInstance(t, 64, 8, true, true)) })
	t.Run("clustered", func(t *testing.T) {
		in := clusteredInstance(64, 4, 11)
		in.Groups = [][]int{{0}, {1}, {2}, {3}}
		checkFillMatchesReference(t, in)
	})
}

// FuzzFillMatchesReference is TestFillMatchesReference over fuzzed
// instance seeds and shapes (make fuzz runs it). The top bit of zero
// selects the symmetric mode, where Run replays.
func FuzzFillMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(0))
	f.Add(int64(2), uint8(30), uint8(5), uint8(1))
	f.Add(int64(3), uint8(7), uint8(1), uint8(2))
	f.Add(int64(4), uint8(20), uint8(4), uint8(0x80))
	f.Fuzz(func(t *testing.T, seed int64, n, m, zero uint8) {
		checkFillMatchesReference(t, fillCase(seed, 1+int(n%48), 1+int(m%6), int(zero%3), zero&0x80 != 0))
	})
}
