package comm

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"geoprocmap/internal/mat"
)

func TestAddTrafficAccumulates(t *testing.T) {
	g := NewGraph(3)
	g.AddTraffic(0, 1, 100, 2)
	g.AddTraffic(0, 1, 50, 1)
	if got := g.Volume(0, 1); got != 150 {
		t.Errorf("Volume(0,1) = %v, want 150", got)
	}
	if got := g.Msgs(0, 1); got != 3 {
		t.Errorf("Msgs(0,1) = %v, want 3", got)
	}
	if got := g.Volume(1, 0); got != 0 {
		t.Errorf("reverse Volume = %v, want 0 (traffic is directed)", got)
	}
}

func TestSelfTrafficIgnored(t *testing.T) {
	g := NewGraph(2)
	g.AddTraffic(1, 1, 100, 5)
	if g.TotalVolume() != 0 || g.EdgeCount() != 0 {
		t.Error("self traffic should be ignored")
	}
}

func TestZeroTrafficNoEdge(t *testing.T) {
	g := NewGraph(2)
	g.AddTraffic(0, 1, 0, 0)
	if g.EdgeCount() != 0 {
		t.Error("zero traffic created an edge")
	}
}

func TestPanics(t *testing.T) {
	g := NewGraph(2)
	cases := []func(){
		func() { g.AddTraffic(-1, 0, 1, 1) },
		func() { g.AddTraffic(0, 2, 1, 1) },
		func() { g.AddTraffic(0, 1, -1, 1) },
		func() { g.AddTraffic(0, 1, 1, -1) },
		func() { g.Volume(0, 5) },
		func() { NewGraph(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// NaN traffic passed the old `volume < 0 || msgs < 0` test and reached
// the frozen rows, where every sum and comparison over it is poisoned; it
// must be rejected exactly like negative traffic.
func TestAddTrafficNaNPanics(t *testing.T) {
	for _, tc := range []struct {
		name         string
		volume, msgs float64
	}{
		{"volume", math.NaN(), 1},
		{"msgs", 1, math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph(2)
			defer func() {
				if recover() == nil {
					t.Errorf("AddTraffic(0, 1, %v, %v) did not panic", tc.volume, tc.msgs)
				}
			}()
			g.AddTraffic(0, 1, tc.volume, tc.msgs)
		})
	}
}

func TestOutgoingIncoming(t *testing.T) {
	g := NewGraph(4)
	g.AddTraffic(0, 2, 10, 1)
	g.AddTraffic(0, 1, 20, 2)
	g.AddTraffic(3, 0, 5, 1)
	out := g.Outgoing(0)
	if len(out) != 2 || out[0].Peer != 1 || out[1].Peer != 2 {
		t.Errorf("Outgoing(0) = %v, want peers [1 2]", out)
	}
	in := g.Incoming(0)
	if len(in) != 1 || in[0].Peer != 3 || in[0].Volume != 5 {
		t.Errorf("Incoming(0) = %v, want [{3 5 1}]", in)
	}
}

func TestNeighborsCombinesDirections(t *testing.T) {
	g := NewGraph(3)
	g.AddTraffic(0, 1, 10, 1)
	g.AddTraffic(1, 0, 30, 2)
	g.AddTraffic(2, 0, 7, 1)
	got := map[int][2]float64{}
	g.Neighbors(0, func(j int, vol, msgs float64) {
		if _, dup := got[j]; dup {
			t.Fatalf("neighbor %d reported twice", j)
		}
		got[j] = [2]float64{vol, msgs}
	})
	if got[1] != [2]float64{40, 3} {
		t.Errorf("neighbor 1 = %v, want {40 3}", got[1])
	}
	if got[2] != [2]float64{7, 1} {
		t.Errorf("neighbor 2 = %v, want {7 1}", got[2])
	}
}

func TestQuantity(t *testing.T) {
	g := NewGraph(3)
	g.AddTraffic(0, 1, 10, 1)
	g.AddTraffic(2, 0, 5, 1)
	if got := g.Quantity(0); got != 15 {
		t.Errorf("Quantity(0) = %v, want 15", got)
	}
	if got := g.Quantity(1); got != 10 {
		t.Errorf("Quantity(1) = %v, want 10", got)
	}
}

func TestTotalsAndDegree(t *testing.T) {
	g := NewGraph(4)
	g.AddTraffic(0, 1, 10, 1)
	g.AddTraffic(0, 2, 10, 2)
	g.AddTraffic(3, 0, 10, 3)
	if g.TotalVolume() != 30 || g.TotalMsgs() != 6 {
		t.Errorf("totals = %v/%v, want 30/6", g.TotalVolume(), g.TotalMsgs())
	}
	if g.EdgeCount() != 3 {
		t.Errorf("EdgeCount = %d, want 3", g.EdgeCount())
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3 (process 0)", g.MaxDegree())
	}
}

func TestDenseRoundTrip(t *testing.T) {
	g := NewGraph(3)
	g.AddTraffic(0, 1, 100, 2)
	g.AddTraffic(1, 2, 50, 1)
	g.AddTraffic(2, 0, 25, 4)
	cg, ag := g.DenseCG(), g.DenseAG()
	if cg.At(0, 1) != 100 || ag.At(2, 0) != 4 {
		t.Error("dense matrices wrong")
	}
	back, err := FromDense(cg, ag)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalVolume() != g.TotalVolume() || back.TotalMsgs() != g.TotalMsgs() {
		t.Error("FromDense lost traffic")
	}
	if back.Volume(1, 2) != 50 || back.Msgs(2, 0) != 4 {
		t.Error("FromDense entries wrong")
	}
}

func TestFromDenseErrors(t *testing.T) {
	if _, err := FromDense(mat.New(2, 3), mat.NewSquare(2)); err == nil {
		t.Error("non-square CG accepted")
	}
	if _, err := FromDense(mat.NewSquare(2), mat.NewSquare(3)); err == nil {
		t.Error("size mismatch accepted")
	}
	neg := mat.NewSquare(2)
	neg.Set(0, 1, -5)
	if _, err := FromDense(neg, mat.NewSquare(2)); err == nil {
		t.Error("negative entry accepted")
	}
}

// Property: TotalVolume equals the sum of the dense CG, and Quantity(i)
// equals row-plus-column sums, for random sparse graphs.
func TestQuickDenseConsistency(t *testing.T) {
	f := func(seedEdges []uint32) bool {
		const n = 9
		g := NewGraph(n)
		for _, raw := range seedEdges {
			src := int(raw % n)
			dst := int((raw / n) % n)
			vol := float64(raw%1000) + 1
			g.AddTraffic(src, dst, vol, 1)
		}
		cg := g.DenseCG()
		if math.Abs(cg.Sum()-g.TotalVolume()) > 1e-6 {
			return false
		}
		for i := 0; i < n; i++ {
			want := cg.RowSum(i) + cg.ColSum(i)
			if math.Abs(g.Quantity(i)-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Neighbors reports each pair exactly once with direction-summed
// traffic matching the dense matrices.
func TestQuickNeighbors(t *testing.T) {
	f := func(seedEdges []uint32) bool {
		const n = 7
		g := NewGraph(n)
		for _, raw := range seedEdges {
			g.AddTraffic(int(raw%n), int((raw/n)%n), float64(raw%97)+1, float64(raw%5)+1)
		}
		cg, ag := g.DenseCG(), g.DenseAG()
		for i := 0; i < n; i++ {
			seen := map[int]bool{}
			ok := true
			g.Neighbors(i, func(j int, vol, msgs float64) {
				if seen[j] || j == i {
					ok = false
					return
				}
				seen[j] = true
				if math.Abs(vol-(cg.At(i, j)+cg.At(j, i))) > 1e-9 {
					ok = false
				}
				if math.Abs(msgs-(ag.At(i, j)+ag.At(j, i))) > 1e-9 {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighborsDeterministicOrder(t *testing.T) {
	g := NewGraph(10)
	// Insert edges in scrambled order.
	for _, e := range [][2]int{{0, 7}, {3, 0}, {0, 1}, {9, 0}, {0, 4}} {
		g.AddTraffic(e[0], e[1], 100, 1)
	}
	var order []int
	g.Neighbors(0, func(j int, _, _ float64) { order = append(order, j) })
	want := []int{1, 3, 4, 7, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want ascending %v", order, want)
		}
	}
}

// A read freezes the graph; later AddTraffic must fail loudly instead of
// silently changing rows that concurrent readers may already share.
func TestAddTrafficAfterReadPanics(t *testing.T) {
	reads := map[string]func(g *Graph){
		"Outgoing":  func(g *Graph) { g.Outgoing(0) },
		"Neighbors": func(g *Graph) { g.Neighbors(0, func(int, float64, float64) {}) },
		"Volume":    func(g *Graph) { g.Volume(0, 1) },
		"Prewarm":   func(g *Graph) { g.Prewarm() },
	}
	for name, read := range reads {
		g := NewGraph(3)
		g.AddTraffic(0, 1, 100, 1)
		read(g)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddTraffic after %s did not panic", name)
				}
			}()
			g.AddTraffic(2, 0, 50, 1)
		}()
		if g.TotalVolume() != 100 || g.Volume(2, 0) != 0 {
			t.Errorf("rejected AddTraffic after %s changed the graph", name)
		}
	}
}

// Concurrent first reads of a graph nobody froze must be race-free (go
// test -race) and see identical rows: the freeze runs exactly once.
func TestConcurrentFirstReads(t *testing.T) {
	const n, readers = 40, 4
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for d := 1; d <= 3; d++ {
			g.AddTraffic(i, (i*d+7)%n, float64(100*d+i), float64(d))
		}
	}
	type row struct {
		out, in, nbr []Edge
		qty          float64
	}
	views := make([][]row, readers)
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			rows := make([]row, n)
			for k := 0; k < n; k++ {
				i := (k + r*n/readers) % n // readers start on different rows
				var nbr []Edge
				g.Neighbors(i, func(j int, vol, msgs float64) { nbr = append(nbr, Edge{j, vol, msgs}) })
				rows[i] = row{g.Outgoing(i), g.Incoming(i), nbr, g.Quantity(i)}
			}
			views[r] = rows
		}(r)
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		for i := 0; i < n; i++ {
			a, b := views[0][i], views[r][i]
			if !equalEdges(a.out, b.out) || !equalEdges(a.in, b.in) || !equalEdges(a.nbr, b.nbr) ||
				math.Float64bits(a.qty) != math.Float64bits(b.qty) {
				t.Fatalf("reader %d saw a different row %d than reader 0", r, i)
			}
		}
	}
}

func equalEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Peer != b[k].Peer || math.Float64bits(a[k].Volume) != math.Float64bits(b[k].Volume) ||
			math.Float64bits(a[k].Msgs) != math.Float64bits(b[k].Msgs) {
			return false
		}
	}
	return true
}

// Property: in random insertion orders with repeated (src, dst) pairs,
// every view equals, bit for bit, a naive reference that accumulates each
// pair with a running sum in call order. The magnitudes span fifteen
// decades so that any reordering of a sum would change its last bits.
func TestViewsBitExactAgainstCallOrder(t *testing.T) {
	for trial := int64(0); trial < 200; trial++ {
		rng := rand.New(rand.NewSource(trial))
		n := 1 + rng.Intn(9)
		g := NewGraph(n)
		type pair struct{ src, dst int }
		ref := map[pair]*Edge{}
		var totalVol, totalMsgs float64
		for c := rng.Intn(60); c > 0; c-- {
			src, dst := rng.Intn(n), rng.Intn(n)
			vol := rng.Float64() * math.Pow(10, float64(rng.Intn(16)-3))
			msgs := float64(rng.Intn(4)) * rng.Float64()
			if rng.Intn(8) == 0 {
				vol = 0
			}
			g.AddTraffic(src, dst, vol, msgs)
			if src == dst || (vol == 0 && msgs == 0) {
				continue
			}
			e := ref[pair{src, dst}]
			if e == nil {
				e = &Edge{Peer: dst}
				ref[pair{src, dst}] = e
			}
			e.Volume += vol
			e.Msgs += msgs
			totalVol += vol
			totalMsgs += msgs
		}
		edges := func(keep func(p pair) (int, bool)) []Edge {
			var es []Edge
			for p, e := range ref {
				if peer, ok := keep(p); ok {
					es = append(es, Edge{peer, e.Volume, e.Msgs})
				}
			}
			sort.Slice(es, func(a, b int) bool { return es[a].Peer < es[b].Peer })
			return es
		}
		if math.Float64bits(g.TotalVolume()) != math.Float64bits(totalVol) ||
			math.Float64bits(g.TotalMsgs()) != math.Float64bits(totalMsgs) {
			t.Fatalf("trial %d: totals %v/%v, want %v/%v", trial, g.TotalVolume(), g.TotalMsgs(), totalVol, totalMsgs)
		}
		for i := 0; i < n; i++ {
			out := edges(func(p pair) (int, bool) { return p.dst, p.src == i })
			in := edges(func(p pair) (int, bool) { return p.src, p.dst == i })
			if !equalEdges(g.Outgoing(i), out) || !equalEdges(g.Incoming(i), in) {
				t.Fatalf("trial %d: process %d rows differ from the call-order reference", trial, i)
			}
			var nbr []Edge
			var qty float64
			for j := 0; j < n; j++ {
				a, b := ref[pair{i, j}], ref[pair{j, i}]
				switch {
				case a != nil && b != nil:
					nbr = append(nbr, Edge{j, a.Volume + b.Volume, a.Msgs + b.Msgs})
				case a != nil:
					nbr = append(nbr, Edge{j, a.Volume, a.Msgs})
				case b != nil:
					nbr = append(nbr, Edge{j, b.Volume, b.Msgs})
				default:
					continue
				}
				qty += nbr[len(nbr)-1].Volume
			}
			var got, gotCSR []Edge
			g.Neighbors(i, func(j int, vol, msgs float64) { got = append(got, Edge{j, vol, msgs}) })
			g.CSR().Neighbors(i, func(j int, vol, msgs float64) { gotCSR = append(gotCSR, Edge{j, vol, msgs}) })
			if !equalEdges(got, nbr) || !equalEdges(gotCSR, nbr) || math.Float64bits(g.Quantity(i)) != math.Float64bits(qty) {
				t.Fatalf("trial %d: process %d neighbors/quantity differ from the call-order reference", trial, i)
			}
		}
	}
}
