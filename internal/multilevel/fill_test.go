package multilevel

import (
	"cmp"
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
// the GeoMapper order search (recorded in results/BENCH_alloc.json).
func BenchmarkAllocFill(b *testing.B) {
	f := NewFill(NewFillTable(clusteredInstance(64, 4, 11)))
	ordered := [][]int{{0}, {1}, {2}, {3}}
	benchFill = f.Run(ordered) // warm members to their high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
// served 512-process request, for one order of its site groups.
func BenchmarkAllocFill512(b *testing.B) {
	f := NewFill(NewFillTable(served512(b)))
	ordered := [][]int{{2}, {0}, {3}, {1}}
	benchFill = f.Run(ordered) // warm members and frontier to their high-water marks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFill = f.Run(ordered)
	}
}

// BenchmarkAllocFill512Shared measures what the other 23 orders of the
// served 512-process search cost: a replay of the logged fill onto an
// order with the same capacity sequence.
func BenchmarkAllocFill512Shared(b *testing.B) {
	f := NewFill(NewFillTable(served512(b)))
	orders := [2][][]int{{{2}, {0}, {3}, {1}}, {{1}, {3}, {0}, {2}}}
	benchFill = f.Run(orders[0])    // the full fill the replays share
	benchFill = f.Replay(orders[1]) // warm every site's members to its high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFill = f.Replay(orders[i%2])
	}
	if f.fullRuns != 1 {
		b.Fatalf("%d full fills, want 1", f.fullRuns)
	}
}

// TestFillSharesSymmetricOrders checks that SearchOrders' key classes
// share fills: an evaluator that Runs each class's first order and
// Replays the others makes as many full fills as there are distinct
// capacity sequences, at every worker count. On the unpinned,
// equal-capacity served instance that is one fill; a pinned vertex or an
// allowed-site set makes every order its own class; two capacity values
// give several keys. Every search must return the placement of a search
// that Runs every order.
func TestFillSharesSymmetricOrders(t *testing.T) {
	search := func(in *Instance, workers int, share bool) ([]int, int) {
		var mu sync.Mutex
		full := 0
		table := NewFillTable(in)
		defer table.Release()
		best, _, ok := SearchOrders(table, math.MaxInt, workers, func(f *Fill) Eval {
			return func(ranks []int) (int, []int, units.Cost, bool) {
				before := f.fullRuns
				defer func() {
					mu.Lock()
					full += f.fullRuns - before
					mu.Unlock()
				}()
				var best []int
				rank, cost := -1, units.Cost(math.Inf(1))
				for i, r := range ranks {
					var pl []int
					if share && i > 0 {
						pl = f.Replay(f.Order(r))
					} else {
						pl = f.Run(f.Order(r))
					}
					if slices.Contains(pl, -1) {
						continue // a site set stranded a vertex
					}
					if c := in.Cost(pl); c < cost {
						best, rank, cost = slices.Clone(pl), r, c
					}
				}
				return rank, best, cost, best != nil
			}
		})
		if !ok {
			t.Fatal("no feasible order")
		}
		return best, full
	}
	// keys counts the distinct capacity sequences of in's orders: one site
	// per group, so a key is the capacities in group order.
	keys := func(in *Instance) int {
		seen := map[string]bool{}
		ordered := make([][]int, len(in.Groups))
		for rank := range stats.FactorialInt(len(in.Groups)) {
			stats.Unrank(ordered, in.Groups, rank)
			key := ""
			for _, g := range ordered {
				key += fmt.Sprint(in.Capacity[g[0]], " ")
			}
			seen[key] = true
		}
		return len(seen)
	}
	check := func(name string, in *Instance, wantFull int) {
		t.Helper()
		for _, workers := range []int{1, 2, 3} {
			got, full := search(in, workers, true)
			if full != wantFull {
				t.Errorf("%s, workers=%d: %d full fills, want %d", name, workers, full, wantFull)
			}
			if want, _ := search(in, 1, false); !slices.Equal(got, want) {
				t.Errorf("%s, workers=%d: shared fills place %v, full fills %v", name, workers, got, want)
			}
		}
	}

	check("symmetric", served512(t), 1)
	pinned := served512(t)
	pinned.Pin[0] = 3
	check("one pinned vertex", pinned, 24)
	restricted := served512(t)
	restricted.Allowed = make([][]int, restricted.G.n)
	restricted.Allowed[5] = []int{0, 2}
	check("one site set", restricted, 24)
	twoValues := served512(t)
	twoValues.Capacity = []int{160, 200, 160, 200}
	if k := keys(twoValues); k != 6 {
		t.Fatalf("two capacity values give %d keys, want 4!/(2!·2!) = 6", k)
	}
	check("two capacity values", twoValues, 6)
}

// TestFillDoesNotAllocatePerOrder locks in the fill's no-reallocation
// contract across the κ! loop (the groupDone scratch used to be allocated
// on every order), with pins and site sets on the paths.
func TestFillDoesNotAllocatePerOrder(t *testing.T) {
	in := testInstance(t, 64, 8, true, true)
	f := NewFill(NewFillTable(in))
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
// classes, on a level whose capacity sequences split the orders into six
// key classes and on a pinned one, where each rank is its own class. The
// evaluator prices an order by a coarse function of its permutation, so
// many orders tie on cost and the lowest rank must win, and it reports
// every fifth code infeasible; an evaluator that rejects every order must
// leave the search not-ok. Every rank must reach exactly one evaluator
// call, in a class of ascending ranks whose orders share one key.
func TestSearchOrdersMatchesSerialScan(t *testing.T) {
	const k = 4
	code := func(ordered [][]int) int {
		c := 0
		for i, g := range ordered {
			c += (i + 1) * g[0]
		}
		return c
	}
	symmetric := served512(t)
	symmetric.Capacity = []int{160, 200, 160, 200}
	pinned := served512(t)
	pinned.Pin[0] = 3
	for _, in := range []*Instance{symmetric, pinned} {
		table := NewFillTable(in)
		order := func(rank int) [][]int {
			ordered := make([][]int, k)
			stats.Unrank(ordered, in.Groups, rank)
			return ordered
		}
		key := func(rank int) string {
			if !table.symmetric {
				return fmt.Sprint(rank)
			}
			var capacities []int
			for _, g := range order(rank) {
				capacities = append(capacities, in.Capacity[g[0]])
			}
			return fmt.Sprint(capacities)
		}
		newEval := func(feasible func(c int) bool, seen []int) func(*Fill) Eval {
			var mu sync.Mutex
			return func(*Fill) Eval {
				pl := make([]int, k)
				return func(ranks []int) (int, []int, units.Cost, bool) {
					if !slices.IsSorted(ranks) {
						t.Errorf("class %v not in ascending rank order", ranks)
					}
					rank, cost := -1, units.Cost(math.Inf(1))
					for _, r := range ranks {
						mu.Lock()
						seen[r]++
						mu.Unlock()
						if key(r) != key(ranks[0]) {
							t.Errorf("class %v: rank %d has key %s, rank %d key %s", ranks, r, key(r), ranks[0], key(ranks[0]))
						}
						c := code(order(r))
						if feasible(c) && units.Cost(c%4) < cost {
							rank, cost = r, units.Cost(c%4)
						}
					}
					if rank < 0 {
						return 0, nil, 0, false
					}
					for i, g := range order(rank) {
						pl[i] = g[0]
					}
					return rank, pl, cost, true
				}
			}
		}
		someInfeasible := func(c int) bool { return c%5 != 0 }
		total := stats.FactorialInt(k)
		for _, limit := range []int{1, 5, total, 720} {
			// Brute force: the first strict minimum in ascending rank order.
			var want []int
			wantCost := units.Cost(math.Inf(1))
			for rank := 0; rank < min(limit, total); rank++ {
				ordered := order(rank)
				if c := code(ordered); someInfeasible(c) && units.Cost(c%4) < wantCost {
					want, wantCost = nil, units.Cost(c%4)
					for _, g := range ordered {
						want = append(want, g[0])
					}
				}
			}
			for _, workers := range []int{1, 2, 3, 8, limit + 1} {
				seen := make([]int, total)
				got, cost, ok := SearchOrders(table, limit, workers, newEval(someInfeasible, seen))
				for r, n := range seen {
					calls := 0
					if r < min(limit, total) {
						calls = 1
					}
					if n != calls {
						t.Errorf("symmetric=%v limit=%d workers=%d: rank %d evaluated %d times, want %d", table.symmetric, limit, workers, r, n, calls)
					}
				}
				if want == nil {
					if ok {
						t.Errorf("limit=%d workers=%d: found %v, want no feasible order", limit, workers, got)
					}
					continue
				}
				if !ok || cost != wantCost || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("symmetric=%v limit=%d workers=%d: got %v cost %v ok %v, want %v cost %v", table.symmetric, limit, workers, got, cost, ok, want, wantCost)
				}
				if _, _, ok := SearchOrders(table, limit, workers, newEval(func(int) bool { return false }, make([]int, total))); ok {
					t.Errorf("limit=%d workers=%d: all-infeasible search reported ok", limit, workers)
				}
			}
		}
	}
}

// TestFillOrderMatchesUnrank checks that Fill.Order decodes lexicographic
// ranks, for every rank of up to seven groups: each rank's order is a
// permutation of the groups, lexicographically greater than the last
// rank's, so the k! ranks give the k! permutations in order.
func TestFillOrderMatchesUnrank(t *testing.T) {
	for k := 0; k <= 7; k++ {
		groups := make([][]int, k)
		for i := range groups {
			groups[i] = []int{i}
		}
		f := &Fill{FillTable: &FillTable{in: &Instance{Groups: groups}}, ordered: make([][]int, k)}
		var prev []int
		for rank := 0; rank < stats.FactorialInt(k); rank++ {
			cur, seen := make([]int, k), make([]bool, k)
			for i, g := range f.Order(rank) {
				if seen[g[0]] {
					t.Fatalf("k=%d rank %d: Order gives %v, not a permutation", k, rank, f.Order(rank))
				}
				seen[g[0]], cur[i] = true, g[0]
			}
			if rank > 0 && slices.Compare(prev, cur) >= 0 {
				t.Fatalf("k=%d rank %d: Order gives %v after %v", k, rank, cur, prev)
			}
			prev = cur
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
// most two values instead, so its orders fall into a few key classes of
// several orders each.
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

// checkFillMatchesReference walks the key classes of in's orders, on
// level 0 and on one coarsened level whose super-vertices weigh up to
// three processes, as an order-search evaluator does: Run on each
// class's first order and Replay on the others. It runs them on f,
// attached to each level as the pool attaches a recycled Fill, whatever
// f filled before, and compares every step with referenceRun on a Fill
// that never filled anything. It fails on the first order where the
// placement, the remaining room or a site's members (in order) differ:
// the initial map's leftover repair reads all three.
func checkFillMatchesReference(t *testing.T, f *Fill, in *Instance) {
	t.Helper()
	l0 := &level{g: in.G, pin: in.Pin, allowed: normalizeAllowed(in.Allowed, in.G.n)}
	mt := &matcher{in: in, ref: in.refWeights(), maxW: 3}
	match, _ := mt.match(l0)
	for _, lv := range []*level{l0, contract(l0, match)} {
		table := newFillTable(in, lv)
		ref := new(Fill)
		f.attach(table)
		ref.attach(table)
		for _, class := range table.keyClasses(stats.FactorialInt(len(in.Groups))) {
			for i, rank := range class {
				ordered := f.Order(rank)
				name, got := "Run", []int(nil)
				if i == 0 {
					got = f.Run(ordered)
				} else {
					name, got = "Replay", f.Replay(ordered)
				}
				if want := referenceRun(ref, ordered); !slices.Equal(got, want) {
					t.Fatalf("level with %d vertices, order rank %d: %s = %v, reference scan = %v", lv.g.n, rank, name, got, want)
				}
				if !slices.Equal(f.avail, ref.avail) {
					t.Fatalf("level with %d vertices, order rank %d: %s leaves avail = %v, reference scan %v", lv.g.n, rank, name, f.avail, ref.avail)
				}
				for s := range f.members {
					if !slices.Equal(f.members[s], ref.members[s]) {
						t.Fatalf("level with %d vertices, order rank %d: %s leaves site %d members = %v, reference scan %v", lv.g.n, rank, name, s, f.members[s], ref.members[s])
					}
				}
			}
		}
	}
}

// TestFillMatchesReference checks the heap-driven fill against the O(N²)
// reference scan on random small instances in every zero mode, with and
// without pins and site sets, and on the fixtures the other fill tests
// use. One Fill serves every case, so each starts from the scratch of
// another shape.
func TestFillMatchesReference(t *testing.T) {
	f := new(Fill)
	for seed := int64(1); seed <= 60; seed++ {
		n, m, zero := 1+int(seed*7%40), 1+int(seed%6), int(seed%3)
		t.Run(fmt.Sprintf("seed=%d/n=%d/m=%d/zero=%d", seed, n, m, zero), func(t *testing.T) {
			checkFillMatchesReference(t, f, fillCase(seed, n, m, zero, false))
		})
		t.Run(fmt.Sprintf("symmetric/seed=%d/n=%d/m=%d/zero=%d", seed, n, m, zero), func(t *testing.T) {
			checkFillMatchesReference(t, f, fillCase(seed, n, m, zero, true))
		})
	}
	t.Run("testInstance", func(t *testing.T) { checkFillMatchesReference(t, f, testInstance(t, 64, 8, true, true)) })
	t.Run("clustered", func(t *testing.T) {
		in := clusteredInstance(64, 4, 11)
		in.Groups = [][]int{{0}, {1}, {2}, {3}}
		checkFillMatchesReference(t, f, in)
	})
}

// FuzzFillMatchesReference is TestFillMatchesReference over fuzzed
// instance seeds and shapes (make fuzz runs it). The top bit of zero
// selects the symmetric mode, where key classes of several orders replay.
// Each input checks its instance, then a second one of another process
// count, site count and mode (pins and site sets where the first has
// none, or none where it has them), then the first again, all on one
// recycled Fill: a buffer that a Fill attached to a new level does not
// resize or clear shows as a placement, room or member list that differs
// from the reference.
func FuzzFillMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(0))
	f.Add(int64(2), uint8(30), uint8(5), uint8(1))
	f.Add(int64(3), uint8(7), uint8(1), uint8(2))
	f.Add(int64(4), uint8(20), uint8(4), uint8(0x80))
	f.Fuzz(func(t *testing.T, seed int64, n, m, zero uint8) {
		first := fillCase(seed, 1+int(n%48), 1+int(m%6), int(zero%3), zero&0x80 != 0)
		second := fillCase(seed+1, 1+int((n/2+17)%48), 1+int((m+3)%6), int((zero+1)%3), zero&0x80 == 0)
		recycled := new(Fill)
		for _, in := range []*Instance{first, second, first} {
			checkFillMatchesReference(t, recycled, in)
		}
	})
}

// TestSeedOrderMatchesComparisonSort checks the counting passes of
// seedOrder against the comparison sort they replace, on quantities with
// ties, zeros, subnormals, +Inf and one shared exponent, and that a NaN
// or a negative zero takes the comparison sort.
func TestSeedOrderMatchesComparisonSort(t *testing.T) {
	rng := stats.NewRand(3)
	want := func(q []units.Cost) []int {
		order := make([]int, len(q))
		for v := range order {
			order[v] = v
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(q[b], q[a]) })
		return order
	}
	var scratch seedScratch // reused across trials of every length
	for trial := 0; trial < 500; trial++ {
		q := make([]units.Cost, rng.Intn(300))
		for v := range q {
			switch rng.Intn(6) {
			case 0:
				q[v] = 0
			case 1:
				q[v] = units.Cost(math.Inf(1))
			case 2:
				q[v] = units.Cost(math.SmallestNonzeroFloat64 * float64(1+rng.Intn(4)))
			case 3:
				q[v] = units.Cost(1 + float64(rng.Intn(8))/8) // one exponent, few values
			default:
				q[v] = units.Cost(rng.Float64() * math.Pow(10, float64(rng.Intn(40)-20)))
			}
		}
		if len(q) > 0 && trial%5 == 0 {
			q[rng.Intn(len(q))] = units.Cost([]float64{math.NaN(), math.Copysign(0, -1)}[rng.Intn(2)])
		}
		if got, want := scratch.seedOrder(q), want(q); !slices.Equal(got, want) {
			t.Fatalf("trial %d: seedOrder(%v) = %v, comparison sort %v", trial, q, got, want)
		}
	}
}
