package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/multilevel"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// served512Problem is a problem in the shape of a served 512-process
// edge-list request: a ring, a stride and a butterfly over the 8 EC2
// regions with 160 nodes each, unpinned.
func served512Problem(tb testing.TB) *Problem {
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
	return &Problem{
		Comm: g, LT: cloud.LT, BT: cloud.BT, PC: cloud.Coordinates(),
		Capacity: cloud.Capacity(), Constraint: mat.NewIntVec(n, Unconstrained),
	}
}

// scanOrders is the reference search: Fill.Run and Problem.Cost on every
// order of groups in rank order, keeping the first strict minimum, with
// no bound.
func scanOrders(p *Problem, groups [][]int) (Placement, units.Cost) {
	fill := multilevel.NewFill(multilevel.NewFillTable(p.instance(nil)))
	var best Placement
	cost := units.Cost(math.Inf(1))
	ordered := make([][]int, len(groups))
	stats.PermutationRange(len(groups), 0, stats.FactorialInt(len(groups)), func(_ int, perm []int) bool {
		for i, gi := range perm {
			ordered[i] = groups[gi]
		}
		pl := Placement(fill.Run(ordered))
		if c := p.Cost(pl); c < cost {
			best, cost = pl.Clone(), c
		}
		return true
	})
	return best, cost
}

// TestOrderEvalCounts pins how much of the served 512-process search the
// price-first plan removes: each worker fills once, prices every order of
// its range from the table, runs Problem.Cost only on the cheapest-priced
// one and skips every other order, the recorded one included. Three
// workers split the 24 ranks unevenly. The placement must be the
// reference scan's.
func TestOrderEvalCounts(t *testing.T) {
	p := served512Problem(t)
	groups, err := GroupSites(p.PC, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := scanOrders(p, groups)
	for _, c := range []struct{ workers, exact, pruned int }{
		{1, 1, 23},
		{2, 2, 22},
		{3, 3, 21},
	} {
		var (
			mu    sync.Mutex
			evals []*orderEval
		)
		table := multilevel.NewFillTable(p.instance(nil))
		got, _, ok := multilevel.SearchOrders(groups, math.MaxInt, c.workers, func(_, hi int) multilevel.Eval {
			e := p.newOrderEval(table, groups, hi)
			mu.Lock()
			evals = append(evals, e)
			mu.Unlock()
			return e.eval
		})
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("workers=%d: placement %v, reference scan %v", c.workers, got, want)
		}
		fills, exact, pruned := 0, 0, 0
		for _, e := range evals {
			fills += e.fill.Generation()
			exact += e.exact
			pruned += e.pruned
		}
		if fills != c.workers || exact != c.exact || pruned != c.pruned {
			t.Errorf("workers=%d: %d full fills, %d exact costs, %d pruned; want %d, %d, %d",
				c.workers, fills, exact, pruned, c.workers, c.exact, c.pruned)
		}
	}
}

// FuzzPricedSearchMatchesScan requires GeoMapper.Map, at one, two and
// three workers (three split κ! unevenly, so a range edge can fall next
// to the ahead order), to return the reference scan's placement bit for bit on
// random small unpinned problems: κ ≤ 5, capacities from one or two
// values, and links and traffic drawn from a few repeated values, or a
// uniform cloud, so that relabellings tie exactly or within the last bits
// (make fuzz runs it).
func FuzzPricedSearchMatchesScan(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(4), uint8(3), uint8(0))
	f.Add(int64(2), uint8(30), uint8(6), uint8(5), uint8(1))
	f.Add(int64(3), uint8(17), uint8(5), uint8(4), uint8(2))
	f.Add(int64(4), uint8(40), uint8(6), uint8(4), uint8(3))
	f.Add(int64(5), uint8(9), uint8(3), uint8(2), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n, m, kappa, mode uint8) {
		p := pricedCase(seed, 1+int(n%48), 1+int(m%6), mode)
		k := 1 + int(kappa)%min(p.M(), 5)
		groups, err := GroupSites(p.PC, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, wantCost := scanOrders(p, groups)
		for _, w := range []int{1, 2, 3} {
			got, err := (&GeoMapper{Kappa: k, Seed: seed, Workers: w}).Map(p)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("workers=%d: placement %v, reference scan %v", w, got, want)
			}
			if c := p.Cost(got); math.Float64bits(c.Float()) != math.Float64bits(wantCost.Float()) {
				t.Fatalf("workers=%d: cost %v, reference scan %v", w, c, wantCost)
			}
		}
	})
}

// pricedCase builds an unpinned problem of n processes on m sites. Bit 0
// of mode makes the cloud uniform, bit 1 gives every other site one more
// node, and bit 2 adds one node of slack per site.
func pricedCase(seed int64, n, m int, mode uint8) *Problem {
	rng := stats.NewRand(seed)
	pick := func(vals ...float64) float64 { return vals[rng.Intn(len(vals))] }
	g := comm.NewGraph(n)
	for i := 0; i < 3*n; i++ {
		g.AddTraffic(rng.Intn(n), rng.Intn(n), pick(1e3, 1e4, 5e5, 0.1), pick(1, 2, 4))
	}
	lt, bt := mat.NewSquare(m), mat.NewSquare(m)
	pc := make([]geo.LatLon, m)
	for k := 0; k < m; k++ {
		pc[k] = geo.LatLon{Lat: pick(-30, 0, 30), Lon: float64(rng.Intn(360) - 180)}
		for l := 0; l < m; l++ {
			switch {
			case k == l:
				lt.Set(k, l, 1e-3)
				bt.Set(k, l, 1e8)
			case mode&1 != 0:
				lt.Set(k, l, 0.05)
				bt.Set(k, l, 1e7)
			default:
				lt.Set(k, l, pick(0.01, 0.05, 0.1, 0.3))
				bt.Set(k, l, pick(1e6, 1e7, 3e7))
			}
		}
	}
	capacity := mat.NewIntVec(m, (n+m-1)/m+int(mode>>2&1))
	if mode&2 != 0 {
		for k := 1; k < m; k += 2 {
			capacity[k]++
		}
	}
	return &Problem{Comm: g, LT: lt, BT: bt, PC: pc, Capacity: capacity, Constraint: mat.NewIntVec(n, Unconstrained)}
}

// BenchmarkMapServed512 measures GeoMapper.Map on one worker for the
// served 512-process shape: the site grouping, the fill table, one fill,
// the plan's 24 table prices and the exact passes.
func BenchmarkMapServed512(b *testing.B) {
	p := served512Problem(b)
	p.Comm.CSR()
	g := &GeoMapper{Seed: 1, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Map(p); err != nil {
			b.Fatal(err)
		}
	}
}
