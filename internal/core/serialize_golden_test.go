package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenProblem is a small hand-built instance that exercises every
// serialized feature: asymmetric traffic, a pinned process, a
// restricted Allowed set, and uneven capacities.
func goldenProblem(t *testing.T) *Problem {
	t.Helper()
	g := comm.NewGraph(6)
	g.AddTraffic(0, 1, 1024, 8)
	g.AddTraffic(1, 0, 512, 4) // asymmetric reverse direction
	g.AddTraffic(0, 2, 2048, 2)
	g.AddTraffic(3, 4, 4096, 16)
	g.AddTraffic(5, 0, 256, 1)
	p := &Problem{
		Comm: g,
		LT: mat.MustFrom([][]float64{
			{0.0005, 0.08, 0.15},
			{0.08, 0.0005, 0.11},
			{0.15, 0.11, 0.0005},
		}),
		BT: mat.MustFrom([][]float64{
			{1e9, 5e7, 2.5e7},
			{5e7, 1e9, 4e7},
			{2.5e7, 4e7, 1e9},
		}),
		PC:         []geo.LatLon{{Lat: 38.13, Lon: -78.45}, {Lat: 53.35, Lon: -6.26}, {Lat: 35.41, Lon: 139.42}},
		Capacity:   []int{3, 2, 2},
		Constraint: mat.IntVec{2, Unconstrained, Unconstrained, Unconstrained, Unconstrained, Unconstrained},
		Allowed:    [][]int{nil, {0, 1}, nil, nil, nil, nil},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProblemJSONGolden locks the on-disk problem format: the checked-in
// golden file must decode to the expected instance, and re-encoding that
// instance must reproduce the file byte for byte. A format change that
// would silently orphan saved problem files fails here first.
func TestProblemJSONGolden(t *testing.T) {
	golden := filepath.Join("testdata", "problem.golden.json")
	if *update {
		var buf bytes.Buffer
		if err := goldenProblem(t).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}

	p, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 6 || p.M() != 3 {
		t.Fatalf("decoded %d×%d, want 6×3", p.N(), p.M())
	}
	if p.Constraint[0] != 2 || p.Constraint[1] != Unconstrained {
		t.Errorf("pins lost: constraint = %v", p.Constraint)
	}
	if len(p.Allowed[1]) != 2 || p.Allowed[1][0] != 0 || p.Allowed[1][1] != 1 {
		t.Errorf("allowed set lost: %v", p.Allowed[1])
	}
	if p.Capacity[0] != 3 || p.Capacity[1] != 2 || p.Capacity[2] != 2 {
		t.Errorf("capacities lost: %v", p.Capacity)
	}
	if got := edgeTo(p.Comm, 0, 1).Volume; got != 1024 {
		t.Errorf("edge (0,1) volume = %g, want 1024", got)
	}
	if got := edgeTo(p.Comm, 1, 0).Volume; got != 512 {
		t.Errorf("asymmetric edge (1,0) volume = %g, want 512", got)
	}
	if p.LT.At(0, 2) != 0.15 || p.BT.At(2, 0) != 2.5e7 {
		t.Error("network matrices lost")
	}
	if p.PC[2].Lon != 139.42 {
		t.Errorf("site coordinates lost: %v", p.PC)
	}

	// Decode → re-encode must be byte-identical: WriteJSON's edge order
	// (ascending src, then dst) and indentation are part of the format.
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Errorf("re-encoded problem differs from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), data)
	}

	// And so must the in-memory instance it was generated from.
	var fresh bytes.Buffer
	if err := goldenProblem(t).WriteJSON(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), data) {
		t.Error("goldenProblem no longer matches the checked-in file; run with -update if the change is intentional")
	}
}

// TestPlacementJSONGolden locks the placement format the same way.
func TestPlacementJSONGolden(t *testing.T) {
	golden := filepath.Join("testdata", "placement.golden.json")
	pl := Placement{2, 0, 0, 1, 1, 2}
	if *update {
		var buf bytes.Buffer
		if err := WritePlacementJSON(&buf, "Geo-distributed", 3.25, pl); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	algo, cost, got, err := ReadPlacementJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if algo != "Geo-distributed" || cost != 3.25 || !got.Equal(pl) {
		t.Errorf("decoded %q %g %v", algo, cost, got)
	}
	var buf bytes.Buffer
	if err := WritePlacementJSON(&buf, algo, cost, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Errorf("re-encoded placement differs from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), data)
	}
}
