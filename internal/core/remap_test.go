package core

import (
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
)

// threeSiteProblem: 4 processes, 3 sites with capacity 2 each, so one site
// can die and the survivors still hold everyone. Site 2 is "farther" from
// site 0 than site 1 is.
func threeSiteProblem() *Problem {
	g := comm.NewGraph(4)
	g.AddTraffic(0, 1, 1e6, 10)
	g.AddTraffic(2, 3, 1e6, 10)
	g.AddTraffic(0, 2, 1e3, 1)
	lt := mat.MustFrom([][]float64{
		{0.001, 0.1, 0.2},
		{0.1, 0.001, 0.1},
		{0.2, 0.1, 0.001},
	})
	bt := mat.MustFrom([][]float64{
		{100e6, 10e6, 5e6},
		{10e6, 100e6, 10e6},
		{5e6, 10e6, 100e6},
	})
	return &Problem{
		Comm:       g,
		LT:         lt,
		BT:         bt,
		PC:         []geo.LatLon{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 50}, {Lat: 0, Lon: 100}},
		Capacity:   mat.IntVec{2, 2, 2},
		Constraint: mat.NewIntVec(4, Unconstrained),
	}
}

func TestRemapNoFaultsIsNoop(t *testing.T) {
	p := threeSiteProblem()
	stale := Placement{0, 0, 1, 1}
	for _, rep := range []*faults.Report{nil, {}} {
		res, err := Remap(p, stale, rep, RemapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Migrated) != 0 || res.MigrationSeconds != 0 {
			t.Errorf("fault-free remap migrated %v", res.Migrated)
		}
		if res.CostAfter != res.CostBefore {
			t.Errorf("fault-free remap changed cost %v → %v", res.CostBefore, res.CostAfter)
		}
	}
}

func TestRemapEvacuatesDeadSite(t *testing.T) {
	p := threeSiteProblem()
	stale := Placement{0, 0, 1, 1}
	rep := &faults.Report{Dropped: 1, DeadSites: []int{1}}
	res, err := Remap(p, stale, rep, RemapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Placement {
		if s == 1 {
			t.Errorf("process %d still on dead site 1", i)
		}
	}
	// Site 0 is full, so both victims must land on site 2 — together,
	// keeping the heavy 2↔3 pair intra-site.
	if res.Placement[2] != 2 || res.Placement[3] != 2 {
		t.Errorf("victims placed at %v, want both on site 2", res.Placement)
	}
	if len(res.Migrated) != 2 || res.MigrationSeconds <= 0 {
		t.Errorf("migrated %v in %v s", res.Migrated, res.MigrationSeconds)
	}
	if err := p.CheckPlacement(res.Placement); err != nil {
		t.Errorf("remapped placement invalid: %v", err)
	}
	// Untouched processes stay put.
	if res.Placement[0] != 0 || res.Placement[1] != 0 {
		t.Errorf("survivors moved: %v", res.Placement)
	}
}

func TestRemapReleasesDeadPinsKeepsLiveOnes(t *testing.T) {
	p := threeSiteProblem()
	p.Constraint[2] = 1 // pinned to the site that dies
	p.Constraint[0] = 0 // pinned to a surviving site
	stale := Placement{0, 0, 1, 1}
	rep := &faults.Report{Dropped: 1, DeadSites: []int{1}}
	res, err := Remap(p, stale, rep, RemapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[2] == 1 {
		t.Error("dead-pinned process left on dead site")
	}
	if res.Placement[0] != 0 {
		t.Errorf("live pin violated: process 0 at %d", res.Placement[0])
	}
}

func TestRemapFailsWithoutHeadroom(t *testing.T) {
	p := twoSiteProblem() // 4 processes, 2+2 slots: a dead site is fatal
	stale := Placement{0, 0, 1, 1}
	rep := &faults.Report{Dropped: 1, DeadSites: []int{1}}
	if _, err := Remap(p, stale, rep, RemapOptions{}); err == nil {
		t.Error("remap succeeded with fewer surviving slots than processes")
	}
	rep = &faults.Report{Dropped: 1, DeadSites: []int{9}}
	if _, err := Remap(p, stale, rep, RemapOptions{}); err == nil {
		t.Error("out-of-range dead site accepted")
	}
}

func TestRemapMoveDegraded(t *testing.T) {
	p := threeSiteProblem()
	// The heavy 0↔1 pair is split across the degraded 0–1 link.
	stale := Placement{0, 1, 2, 2}
	rep := &faults.Report{Retries: 5, DegradedPairs: [][2]int{{0, 1}}}
	stay, err := Remap(p, stale, rep, RemapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stay.Migrated) != 0 {
		t.Errorf("remap without MoveDegraded migrated %v", stay.Migrated)
	}
	res, err := Remap(p, stale, rep, RemapOptions{MoveDegraded: true, HorizonIterations: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrated) == 0 {
		t.Fatal("no degraded-site move despite a huge horizon")
	}
	if res.CostAfter >= res.CostBefore {
		t.Errorf("degraded move raised cost %v → %v", res.CostBefore, res.CostAfter)
	}
	if err := p.CheckPlacement(res.Placement); err != nil {
		t.Errorf("remapped placement invalid: %v", err)
	}
	// A tiny horizon cannot amortize any migration: nothing moves.
	small, err := Remap(p, stale, rep, RemapOptions{MoveDegraded: true, HorizonIterations: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Migrated) != 0 {
		t.Errorf("tiny horizon still migrated %v", small.Migrated)
	}
}

func TestRemapRejectsInvalidInputs(t *testing.T) {
	p := threeSiteProblem()
	rep := &faults.Report{Dropped: 1, DeadSites: []int{1}}
	if _, err := Remap(p, Placement{0, 0, 1}, rep, RemapOptions{}); err == nil {
		t.Error("short placement accepted")
	}
	bad := threeSiteProblem()
	bad.Capacity[0] = 0
	if _, err := Remap(bad, Placement{0, 0, 1, 1}, rep, RemapOptions{}); err == nil {
		t.Error("invalid problem accepted")
	}
}

// Regression: the greedy pass sends heavy victim 0 to site 1, the only
// live site victim 1 admits. Remap used to reject this feasible
// evacuation; the augmenting-path repair moves victim 0 on to site 2.
func TestRemapRepairsStrandedVictim(t *testing.T) {
	p := threeSiteProblem()
	p.Allowed = [][]int{nil, {0, 1}, nil, nil}
	stale := Placement{0, 0, 1, 2}
	rep := &faults.Report{Dropped: 1, DeadSites: []int{0}}
	res, err := Remap(p, stale, rep, RemapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Placement{2, 1, 1, 2}); !res.Placement.Equal(want) {
		t.Errorf("placement = %v, want %v", res.Placement, want)
	}
	if err := p.CheckPlacement(res.Placement); err != nil {
		t.Errorf("remapped placement invalid: %v", err)
	}
	if len(res.Migrated) != 2 || res.Migrated[0] != 0 || res.Migrated[1] != 1 {
		t.Errorf("migrated %v, want [0 1]", res.Migrated)
	}
	want := MigrationImageBytes.Over(p.Bandwidth(0, 2)) + MigrationImageBytes.Over(p.Bandwidth(0, 1))
	if res.MigrationSeconds != want {
		t.Errorf("migration time %v, want %v", res.MigrationSeconds, want)
	}
	if res.CostAfter != p.Cost(res.Placement) {
		t.Errorf("CostAfter %v, want %v", res.CostAfter, p.Cost(res.Placement))
	}
}

// A repair that relocates a survivor counts the survivor's move too.
func TestRemapRepairCountsRelocatedSurvivor(t *testing.T) {
	p := threeSiteProblem()
	p.Allowed = [][]int{{0, 1}, nil, nil, nil}
	stale := Placement{0, 1, 1, 2}
	// Site 0 dies; victim 0 admits only site 1, which survivors 1 and 2
	// fill, so one of them must move to site 2.
	rep := &faults.Report{Dropped: 1, DeadSites: []int{0}}
	res, err := Remap(p, stale, rep, RemapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckPlacement(res.Placement); err != nil {
		t.Fatalf("remapped placement invalid: %v", err)
	}
	if res.Placement[0] != 1 {
		t.Errorf("victim 0 at site %d, want 1", res.Placement[0])
	}
	moved := 0
	for i := range stale {
		if res.Placement[i] != stale[i] {
			moved++
		}
	}
	if len(res.Migrated) != moved || moved != 2 {
		t.Errorf("migrated %v for %d moved processes, want 2", res.Migrated, moved)
	}
}
