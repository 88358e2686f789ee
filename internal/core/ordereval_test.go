package core

import (
	"fmt"
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

// scanOrders is the reference search: a full Fill.Run, never a replay,
// and Problem.Cost on every order of groups in rank order, keeping the
// first strict minimum, with no bound.
func scanOrders(p *Problem, groups [][]int) (Placement, units.Cost) {
	fill := multilevel.NewFill(multilevel.NewFillTable(p.instance(nil)))
	var best Placement
	cost := units.Cost(math.Inf(1))
	ordered := make([][]int, len(groups))
	for rank := range stats.FactorialInt(len(groups)) {
		stats.Unrank(ordered, groups, rank)
		pl := Placement(fill.Run(ordered))
		if c := p.Cost(pl); c < cost {
			best, cost = pl.Clone(), c
		}
	}
	return best, cost
}

// TestOrderEvalCounts pins how much of the served 512-process search the
// key classes and the price-first walk remove: every order visits the same
// capacity sequence, so the search has one class, which one evaluator
// fills once, prices from the table, runs Problem.Cost on the
// cheapest-priced order only, and skips the other 23, at any worker
// count. The placement must be the reference scan's.
func TestOrderEvalCounts(t *testing.T) {
	p := served512Problem(t)
	groups, err := GroupSites(p.PC, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := scanOrders(p, groups)
	for _, workers := range []int{1, 2, 3} {
		var (
			mu      sync.Mutex
			evals   []*orderEval
			classes int
		)
		table := multilevel.NewFillTable(p.instance(groups))
		got, _, ok := multilevel.SearchOrders(table, math.MaxInt, workers, func(f *multilevel.Fill) multilevel.Eval {
			e := p.newOrderEval(f)
			mu.Lock()
			evals = append(evals, e)
			mu.Unlock()
			return func(ranks []int) (int, []int, units.Cost, bool) {
				mu.Lock()
				classes++ // each class's first order is a full fill
				mu.Unlock()
				return e.eval(ranks)
			}
		})
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("workers=%d: placement %v, reference scan %v", workers, got, want)
		}
		exact, pruned := 0, 0
		for _, e := range evals {
			exact += e.exact
			pruned += e.pruned
		}
		if classes != 1 || exact != 1 || pruned != 23 {
			t.Errorf("workers=%d: %d full fills, %d exact costs, %d pruned; want 1, 1, 23", workers, classes, exact, pruned)
		}
	}
}

// FuzzPricedSearchMatchesScan requires GeoMapper.Map, at one, two and
// three workers, to return the reference scan's placement bit for bit on
// random small problems: κ ≤ 5, capacities from one or two values, and
// links and traffic drawn from a few repeated values, or a uniform cloud,
// so that relabellings tie exactly or within the last bits. Unpinned
// problems with two capacity values split the orders into several key
// classes; pinned ones make every order its own class, so the workers
// share one-rank classes (make fuzz runs it).
func FuzzPricedSearchMatchesScan(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(4), uint8(3), uint8(0))
	f.Add(int64(2), uint8(30), uint8(6), uint8(5), uint8(1))
	f.Add(int64(3), uint8(17), uint8(5), uint8(4), uint8(2))
	f.Add(int64(4), uint8(40), uint8(6), uint8(4), uint8(3))
	f.Add(int64(5), uint8(9), uint8(3), uint8(2), uint8(6))
	f.Add(int64(6), uint8(30), uint8(5), uint8(4), uint8(0x80))
	f.Add(int64(7), uint8(20), uint8(4), uint8(3), uint8(0x83))
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

// pricedCase builds a problem of n processes on m sites. Bit 0 of mode
// makes the cloud uniform, bit 1 gives every other site one more node,
// bit 2 adds one node of slack per site, and bit 7 pins 0–3 processes to
// sites with room.
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
	constraint := mat.NewIntVec(n, Unconstrained)
	if mode&0x80 != 0 {
		pinned := make([]int, m)
		for k := rng.Intn(4); k > 0; k-- {
			if i, s := rng.Intn(n), rng.Intn(m); constraint[i] == Unconstrained && pinned[s] < capacity[s] {
				constraint[i] = s
				pinned[s]++
			}
		}
	}
	return &Problem{Comm: g, LT: lt, BT: bt, PC: pc, Capacity: capacity, Constraint: constraint}
}

// BenchmarkMapServed512 measures GeoMapper.Map for the served
// 512-process shape at one and two workers: the site grouping, the fill
// table, the key classes, one fill, 24 table prices and one exact pass.
// The orders share one key, so the second worker gets no class and runs
// no goroutine.
func BenchmarkMapServed512(b *testing.B) {
	p := served512Problem(b)
	p.Comm.CSR()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			g := &GeoMapper{Seed: 1, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Map(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
