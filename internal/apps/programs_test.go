package apps

import (
	"math"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/mpi"
	"geoprocmap/internal/netmodel"
)

func runProgram(t *testing.T, a App, n, iters int, mapping []int) *mpi.Result {
	t.Helper()
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions, (n+3)/4, netmodel.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mapping == nil {
		mapping = make([]int, n)
		per := (n + 3) / 4
		for i := range mapping {
			mapping[i] = i / per
		}
	}
	w, err := mpi.NewWorld(cloud, mapping)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ProgramFor(a, iters)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(prog)
	if err != nil {
		t.Fatalf("%s program: %v", a.Name(), err)
	}
	return res
}

// The runnable programs must emit exactly the communication pattern the
// static generators produce — same pairs, volumes, and message counts.
func TestProgramsMatchGenerators(t *testing.T) {
	for _, a := range Extended() {
		res := runProgram(t, a, 64, 1, nil)
		runGraph := res.Trace.Graph()
		genGraph, err := Graph(a, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTraffic(runGraph, genGraph) {
			t.Errorf("%s: program CG/AG differ from generator CG/AG", a.Name())
		}
	}
}

func TestProgramsRunMultipleIterations(t *testing.T) {
	for _, a := range All() {
		res := runProgram(t, a, 16, 3, nil)
		if res.Elapsed <= 0 {
			t.Errorf("%s: nonpositive elapsed", a.Name())
		}
		one := runProgram(t, a, 16, 1, nil)
		if res.Trace.Len() != 3*one.Trace.Len() {
			t.Errorf("%s: events not linear in iterations (%d vs 3×%d)", a.Name(), res.Trace.Len(), one.Trace.Len())
		}
	}
}

func TestProgramMappingSensitivity(t *testing.T) {
	// A block mapping must beat a scattered round-robin mapping for LU.
	n := 64
	block := make([]int, n)
	scatter := make([]int, n)
	for i := range block {
		block[i] = i / 16
		scatter[i] = i % 4
	}
	tBlock := runProgram(t, NewLU(), n, 1, block).Elapsed
	tScatter := runProgram(t, NewLU(), n, 1, scatter).Elapsed
	if tBlock >= tScatter {
		t.Errorf("block mapping (%v) not faster than scatter (%v)", tBlock, tScatter)
	}
}

func TestProgramForErrors(t *testing.T) {
	if _, err := ProgramFor(NewLU(), 0); err == nil {
		t.Error("iters=0 accepted")
	}
}

func TestCGProgramConstraints(t *testing.T) {
	// CG's program requires a square power-of-two grid: 32 ranks → 4×8.
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions, 8, netmodel.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mapping := make([]int, 32)
	for i := range mapping {
		mapping[i] = i / 8
	}
	w, err := mpi.NewWorld(cloud, mapping)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ProgramFor(NewCG(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(prog); err == nil {
		t.Error("CG program on a non-square grid should fail")
	}
}

func TestWraparoundProgramNeedsEvenGrid(t *testing.T) {
	// 12 ranks → 3×4 grid: the odd row count breaks the parity pairing,
	// so the BT/SP programs must refuse rather than deadlock.
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions, 3, netmodel.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mapping := make([]int, 12)
	for i := range mapping {
		mapping[i] = i / 3
	}
	w, err := mpi.NewWorld(cloud, mapping)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ProgramFor(NewBT(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(prog); err == nil {
		t.Error("BT program accepted an odd grid side")
	}
}

func TestMGProgramMatchesAtOddSizes(t *testing.T) {
	// MG's red-black exchange handles non-power-of-two worlds.
	res := runProgram(t, NewMG(), 12, 1, nil)
	gen, err := Graph(NewMG(), 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTraffic(res.Trace.Graph(), gen) {
		t.Error("MG program/generator mismatch at n=12")
	}
}

// sameTraffic reports whether a and b have the same edges, with volumes
// and message counts within 1e-9.
func sameTraffic(a, b *comm.Graph) bool {
	if a.N() != b.N() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		ra, rb := a.Outgoing(i), b.Outgoing(i)
		if len(ra) != len(rb) {
			return false
		}
		for k := range ra {
			if ra[k].Peer != rb[k].Peer || math.Abs(ra[k].Volume-rb[k].Volume) > 1e-9 || math.Abs(ra[k].Msgs-rb[k].Msgs) > 1e-9 {
				return false
			}
		}
	}
	return true
}
