package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/core"
)

// TestSeedDeterminism is the reproducibility regression the geolint
// globalrand rule guards: two full pipeline runs — cloud construction,
// profiling, calibration, constraint sampling, Geo-distributed mapping,
// cost evaluation — with the same seed on a paper-scale scenario (4 EC2
// regions × 16 nodes, 64 processes) must produce byte-identical mappings
// and bit-identical costs. Any global math/rand call anywhere in the
// pipeline breaks this.
func TestSeedDeterminism(t *testing.T) {
	const (
		n    = 64
		seed = 42
	)
	runOnce := func(workers int) (mapping string, costBits uint64) {
		t.Helper()
		cloud, err := PaperCloudForScale(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if m := cloud.M(); m != 4 {
			t.Fatalf("paper cloud has %d sites, want 4", m)
		}
		inst, err := BuildInstance(cloud, apps.NewLU(), n, 10, 0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		mapper := &core.GeoMapper{Kappa: 4, Seed: seed, Workers: workers}
		pl, err := mapper.Map(inst.Problem)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Problem.CheckPlacement(pl); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v", pl), math.Float64bits(inst.CommCost(pl))
	}

	m1, c1 := runOnce(1)
	m2, c2 := runOnce(1)
	if m1 != m2 {
		t.Errorf("same-seed mappings differ:\n run 1: %s\n run 2: %s", m1, m2)
	}
	if c1 != c2 {
		t.Errorf("same-seed costs differ bitwise: %016x vs %016x", c1, c2)
	}

	// The parallel order search must be as deterministic as the serial
	// one, and agree with it byte for byte (reduction ties break on the
	// lowest permutation rank regardless of goroutine scheduling).
	for _, workers := range []int{runtime.GOMAXPROCS(0), 3} {
		mp, cp := runOnce(workers)
		if mp != m1 {
			t.Errorf("workers=%d mapping differs from serial:\n serial:   %s\n parallel: %s", workers, m1, mp)
		}
		if cp != c1 {
			t.Errorf("workers=%d cost differs bitwise from serial: %016x vs %016x", workers, c1, cp)
		}
	}

	// The baseline measurement (averaged random placements) must be as
	// reproducible as the mapper itself.
	cloud, err := PaperCloudForScale(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(cloud, apps.NewLU(), n, 10, 0.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := inst.BaselineCost(5, seed)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := inst.BaselineCost(5, seed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(b1) != math.Float64bits(b2) {
		t.Errorf("same-seed baseline costs differ bitwise: %v vs %v", b1, b2)
	}
}

// TestMultilevelSmoke is the multilevel-smoke gate: the full-size mlsmoke
// experiment, as `geobench -exp mlsmoke` runs it, maps its 4096-process
// instance at Workers = 1 and max(2, GOMAXPROCS) to the same placement,
// with the cost and the placement digest pinned bit for bit.
func TestMultilevelSmoke(t *testing.T) {
	const (
		wantCostBits = 0x4079a7e806d856b2 // 410.4941471529702
		wantDigest   = "5dcf9bb6310a33342f7b293609a98967822d452166110f94608d042d49985ffa"
	)
	rep, err := MultilevelSmoke(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	workers := []string{"1", fmt.Sprint(max(2, runtime.GOMAXPROCS(0)))}
	if len(rep.Rows) != len(workers) {
		t.Fatalf("report has %d rows, want %d:\n%s", len(rep.Rows), len(workers), rep)
	}
	for i, row := range rep.Rows {
		cost, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if row[0] != workers[i] || math.Float64bits(cost) != wantCostBits || row[3] != "true" || row[4] != wantDigest {
			t.Errorf("row %v, want workers %s, cost %v (bits %#x), identical, digest %s",
				row, workers[i], math.Float64frombits(wantCostBits), uint64(wantCostBits), wantDigest)
		}
	}
}
