package apps

import (
	"math"
	"testing"
	"testing/quick"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/trace"
)

func TestGridDims(t *testing.T) {
	cases := []struct{ n, rows, cols int }{
		{64, 8, 8}, {128, 8, 16}, {256, 16, 16}, {12, 3, 4}, {7, 1, 7}, {1, 1, 1},
	}
	for _, tc := range cases {
		r, c := gridDims(tc.n)
		if r != tc.rows || c != tc.cols {
			t.Errorf("gridDims(%d) = %d×%d, want %d×%d", tc.n, r, c, tc.rows, tc.cols)
		}
		if r*c != tc.n {
			t.Errorf("gridDims(%d) does not multiply back", tc.n)
		}
	}
}

func TestAllAndByName(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() has %d apps, want 5", len(all))
	}
	names := map[string]bool{}
	for _, a := range all {
		names[a.Name()] = true
		got, err := ByName(a.Name())
		if err != nil {
			t.Errorf("ByName(%q): %v", a.Name(), err)
		}
		if got.Name() != a.Name() {
			t.Errorf("ByName(%q) returned %q", a.Name(), got.Name())
		}
	}
	for _, want := range []string{"LU", "BT", "SP", "K-means", "DNN"} {
		if !names[want] {
			t.Errorf("missing workload %s", want)
		}
	}
	if _, err := ByName("HPL"); err == nil {
		t.Error("unknown app accepted")
	}
}

// The paper's Figure 3 description: on 64 processes LU's process 1
// communicates only with processes 2 and 8 (1-based), i.e. 0-based process
// 0 talks to 1 and 8, with exactly the sizes 43 KB and 83 KB.
func TestLUPaperPattern(t *testing.T) {
	g, err := Graph(NewLU(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Outgoing(0)
	if len(out) != 2 {
		t.Fatalf("LU process 0 sends to %d peers, want 2: %v", len(out), out)
	}
	if out[0].Peer != 1 || out[1].Peer != 8 {
		t.Errorf("LU process 0 peers = %d,%d, want 1,8", out[0].Peer, out[1].Peer)
	}
	sizes := map[float64]bool{}
	for i := 0; i < 64; i++ {
		for _, e := range g.Outgoing(i) {
			sizes[e.Volume/e.Msgs] = true
		}
	}
	if len(sizes) != 2 || !sizes[43*1024] || !sizes[83*1024] {
		t.Errorf("LU message sizes = %v, want exactly {43KB, 83KB}", sizes)
	}
}

func TestLUNearDiagonal(t *testing.T) {
	g, err := Graph(NewLU(), 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		for _, e := range g.Outgoing(i) {
			d := e.Peer - i
			if d != 1 && d != -1 && d != 8 && d != -8 {
				t.Fatalf("LU process %d sends to %d (offset %d), not a grid neighbor", i, e.Peer, d)
			}
		}
	}
	if g.MaxDegree() > 4 {
		t.Errorf("LU max degree %d, want ≤4", g.MaxDegree())
	}
}

func TestBTSPWraparound(t *testing.T) {
	for _, mk := range []func() App{NewBT, NewSP} {
		a := mk()
		g, err := Graph(a, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Wraparound: process 7 (row 0, col 7) exchanges with process 0.
		if edgeTo(g, 7, 0).Volume == 0 {
			t.Errorf("%s: no wraparound traffic 7→0", a.Name())
		}
		// Symmetric exchanges: volume i→j equals volume j→i.
		for i := 0; i < 64; i++ {
			for _, e := range g.Outgoing(i) {
				if math.Abs(edgeTo(g, e.Peer, i).Volume-e.Volume) > 1e-9 {
					t.Fatalf("%s: asymmetric exchange %d↔%d", a.Name(), i, e.Peer)
				}
			}
		}
	}
}

func TestBTHeavierThanSP(t *testing.T) {
	bt, err := Graph(NewBT(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Graph(NewSP(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bt.TotalVolume() <= sp.TotalVolume() {
		t.Errorf("BT volume %v not above SP volume %v", bt.TotalVolume(), sp.TotalVolume())
	}
}

func TestKMeansButterflyPattern(t *testing.T) {
	g, err := Graph(NewKMeans(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Power-of-two n: each process talks to its log2(n) XOR partners plus
	// its hash-derived shuffle partners.
	got := map[int]bool{}
	for _, e := range g.Outgoing(0) {
		got[e.Peer] = true
	}
	for _, want := range []int{1, 2, 4, 8, 16, 32} {
		if !got[want] {
			t.Errorf("K-means process 0 missing XOR partner %d", want)
		}
	}
	if !got[3] {
		t.Error("K-means process 0 missing shuffle partner 3")
	}
	// Non-local: the pattern must include peers farther than grid distance.
	if edgeTo(g, 0, 32).Volume == 0 {
		t.Error("K-means lacks long-distance partner traffic")
	}
	// The shuffle is skewed: per-process volumes differ.
	if edgeTo(g, 1, (1*17+3)%64).Volume == edgeTo(g, 2, (2*17+3)%64).Volume {
		t.Error("shuffle volumes not skewed across processes")
	}
}

func TestKMeansNonPowerOfTwo(t *testing.T) {
	g, err := Graph(NewKMeans(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Folded ranks 8, 9 talk to 0, 1.
	if edgeTo(g, 8, 0).Volume == 0 || edgeTo(g, 0, 8).Volume == 0 {
		t.Error("fold/unfold traffic missing for rank 8")
	}
	if edgeTo(g, 9, 1).Volume == 0 {
		t.Error("fold traffic missing for rank 9")
	}
}

func TestDNNSmallVolume(t *testing.T) {
	iters := 5
	dnn, err := Graph(NewDNN(), 64, iters)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := Graph(NewLU(), 64, iters)
	if err != nil {
		t.Fatal(err)
	}
	// DNN exchanges ~2·n·model per run vs LU's per-iteration sweeps; with
	// per-iteration compute factored in, DNN's comm:compute ratio must be
	// far below LU's.
	dnnRatio := dnn.TotalVolume() / (NewDNN().ComputeTime(64) * float64(iters))
	luRatio := lu.TotalVolume() / (NewLU().ComputeTime(64) * float64(iters))
	if dnnRatio >= luRatio/3 {
		t.Errorf("DNN comm:compute ratio %.3g not well below LU's %.3g", dnnRatio, luRatio)
	}
}

func TestDNNTreeStructure(t *testing.T) {
	g, err := Graph(NewDNN(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reduce tree to rank 0: 1→0, 2→0, 4→0, 3→2, 5→4, 6→4, 7→6.
	for _, pair := range [][2]int{{1, 0}, {2, 0}, {4, 0}, {3, 2}, {5, 4}, {7, 6}} {
		if edgeTo(g, pair[0], pair[1]).Volume == 0 {
			t.Errorf("missing reduce edge %d→%d", pair[0], pair[1])
		}
	}
	// Broadcast tree from rank 0: 0→4, 0→2, 0→1.
	for _, pair := range [][2]int{{0, 4}, {0, 2}, {0, 1}} {
		if edgeTo(g, pair[0], pair[1]).Volume == 0 {
			t.Errorf("missing broadcast edge %d→%d", pair[0], pair[1])
		}
	}
}

func TestTraceArgErrors(t *testing.T) {
	for _, a := range Extended() {
		if _, err := Trace(a, 1, 1); err == nil {
			t.Errorf("%s: n=1 accepted", a.Name())
		}
		if _, err := Trace(a, 8, 0); err == nil {
			t.Errorf("%s: iters=0 accepted", a.Name())
		}
		if _, err := Graph(a, 1, 1); err == nil {
			t.Errorf("%s: Graph accepted n=1", a.Name())
		}
		if _, err := Graph(a, 8, 0); err == nil {
			t.Errorf("%s: Graph accepted iters=0", a.Name())
		}
	}
}

func TestComputeTimes(t *testing.T) {
	for _, a := range All() {
		if a.ComputeTime(64) <= 0 {
			t.Errorf("%s: nonpositive compute time", a.Name())
		}
	}
	// Strong scaling for the HPC kernels and K-means.
	for _, name := range []string{"LU", "BT", "SP", "K-means"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.ComputeTime(128) >= a.ComputeTime(64) {
			t.Errorf("%s: compute time does not shrink with scale", name)
		}
	}
	// DNN is per-epoch constant.
	d := NewDNN()
	if d.ComputeTime(64) != d.ComputeTime(128) {
		t.Error("DNN compute time should be scale-invariant")
	}
}

func TestIterationsScaleTraffic(t *testing.T) {
	for _, a := range All() {
		one, err := Graph(a, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		three, err := Graph(a, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(three.TotalVolume()-3*one.TotalVolume()) > 1e-6 {
			t.Errorf("%s: traffic not linear in iterations", a.Name())
		}
	}
}

// The LU trace of one process must compress extremely well — its stream is
// a pure loop (this is what made CYPRESS practical for the paper).
func TestNPBTraceCompresses(t *testing.T) {
	r, err := Trace(NewLU(), 64, 50)
	if err != nil {
		t.Fatal(err)
	}
	c := trace.CompressAll(r)[9] // interior process: 4 sends/iter
	if c.Ratio() < 20 {
		t.Errorf("LU interior process trace ratio %v, want ≥20 (stream: %s)", c.Ratio(), c)
	}
}

// Property: all apps generate valid traces whose graphs have positive
// traffic and no self-edges, at arbitrary small scales.
func TestQuickAppsValidTraces(t *testing.T) {
	appsList := All()
	f := func(nRaw, itRaw, appRaw uint8) bool {
		n := int(nRaw%62) + 2
		iters := int(itRaw%3) + 1
		a := appsList[int(appRaw)%len(appsList)]
		r, err := Trace(a, n, iters)
		if err != nil {
			return false
		}
		if r.N() != n || r.Len() == 0 {
			return false
		}
		g := r.Graph()
		return g.TotalVolume() > 0 && g.TotalMsgs() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCGTransposePattern(t *testing.T) {
	g, err := Graph(NewCG(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 8×8 grid: the transpose partner of rank 1 (row 0, col 1) is rank 8
	// (row 1, col 0) — a long-range exchange.
	if edgeTo(g, 1, 8).Volume == 0 {
		t.Error("missing transpose exchange 1→8")
	}
	// Row-wise reductions stay within the grid row.
	for i := 0; i < 64; i++ {
		row := i / 8
		for _, e := range g.Outgoing(i) {
			if e.Volume/e.Msgs > 70*1024 {
				continue // segment exchange may leave the row
			}
			if e.Peer/8 != row {
				t.Fatalf("reduction message from %d leaves its row (→%d)", i, e.Peer)
			}
		}
	}
}

func TestCGInExtendedCatalog(t *testing.T) {
	if len(Extended()) < len(All())+1 {
		t.Fatalf("Extended has %d apps, want more than %d", len(Extended()), len(All()))
	}
	a, err := ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	if a.ComputeTime(64) <= 0 || a.DefaultIters() < 1 {
		t.Error("CG metadata invalid")
	}
	if _, err := Trace(a, 1, 1); err == nil {
		t.Error("CG n=1 accepted")
	}
	if _, err := Trace(a, 8, 0); err == nil {
		t.Error("CG iters=0 accepted")
	}
	// The paper catalog stays at five workloads.
	if len(All()) != 5 {
		t.Errorf("All() has %d apps, want the paper's 5", len(All()))
	}
}

func TestCGMappableAndNonTrivial(t *testing.T) {
	g, err := Graph(NewCG(), 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalVolume() <= 0 || g.MaxDegree() < 3 {
		t.Errorf("CG pattern degenerate: vol %v deg %d", g.TotalVolume(), g.MaxDegree())
	}
}

func TestMGHierarchicalBands(t *testing.T) {
	g, err := Graph(NewMG(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Bands at strides 1, 2, 4, 8 with decreasing per-message volume.
	prev := -1.0
	for _, stride := range []int{1, 2, 4, 8} {
		v := edgeTo(g, 0, stride).Volume
		if v == 0 {
			t.Fatalf("missing band at stride %d", stride)
		}
		if prev >= 0 && v >= prev {
			t.Errorf("stride %d volume %v not below finer level %v", stride, v, prev)
		}
		prev = v
	}
	// No band beyond the level cap (4 levels → max stride 8).
	if edgeTo(g, 0, 16).Volume != 0 {
		t.Error("unexpected band at stride 16")
	}
	// Exchanges are symmetric.
	if edgeTo(g, 0, 1).Volume != edgeTo(g, 1, 0).Volume {
		t.Error("MG exchange not symmetric")
	}
}

func TestMGSmallWorld(t *testing.T) {
	// Level count clamps for tiny worlds.
	g, err := Graph(NewMG(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalVolume() <= 0 {
		t.Error("no traffic for 3 processes")
	}
	a := NewMG()
	if _, err := Trace(a, 1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Trace(a, 4, 0); err == nil {
		t.Error("iters=0 accepted")
	}
	if a.ComputeTime(32) <= 0 {
		t.Error("nonpositive compute time")
	}
}

func TestExtendedCatalogComplete(t *testing.T) {
	if len(Extended()) != 7 {
		t.Fatalf("Extended has %d apps, want 7 (5 paper + CG + MG)", len(Extended()))
	}
	if _, err := ByName("MG"); err != nil {
		t.Error("MG not in catalog")
	}
}

// edgeTo returns g's i→j edge, or a zero Edge when i sends nothing to j.
func edgeTo(g *comm.Graph, i, j int) comm.Edge {
	for _, e := range g.Outgoing(i) {
		if e.Peer == j {
			return e
		}
	}
	return comm.Edge{}
}
