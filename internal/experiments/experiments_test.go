package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/stats"
)

func quickCfg() Config { return Config{Seed: 1, Quick: true} }

// parsePct parses a "42%" cell.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"azure", "contention", "collectives", "multiconstraint", "headline", "manysites", "robustness", "orders", "regauge",
		"multilevel", "mlsmoke"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("IDs()[%d] = %s, want %s", i, ids[i], id)
		}
	}
	if _, err := Run("table99", quickCfg()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// Each draw of an improvement figure runs on the caller's config with
// only the seed moved, so the geo mapper's Workers (the overhead term of
// fig5) and Quick (the repeat count) reach every draw.
func TestDrawConfigKeepsCallerSettings(t *testing.T) {
	cfg := Config{Seed: 4, Quick: true, ConstraintRatio: 0.3, Workers: 3}
	got := cfg.draw(2)
	want := cfg
	want.Seed = 2004
	if got != want {
		t.Errorf("draw(2) = %+v, want %+v", got, want)
	}
	if got.repeats() != cfg.repeats() {
		t.Errorf("draw repeats %d, caller %d", got.repeats(), cfg.repeats())
	}
}

func TestRandomConstraints(t *testing.T) {
	capVec := mat.IntVec{4, 4, 4, 4}
	rng := stats.NewRand(1)
	for _, ratio := range []float64{0, 0.2, 0.5, 1} {
		c, err := RandomConstraints(16, capVec, ratio, rng)
		if err != nil {
			t.Fatal(err)
		}
		pinned := 0
		perSite := make([]int, 4)
		for _, s := range c {
			if s >= 0 {
				pinned++
				perSite[s]++
			}
		}
		want := int(ratio*16 + 0.5)
		if pinned != want {
			t.Errorf("ratio %v: pinned %d, want %d", ratio, pinned, want)
		}
		for j, n := range perSite {
			if n > capVec[j] {
				t.Errorf("ratio %v: site %d over capacity (%d > %d)", ratio, j, n, capVec[j])
			}
		}
	}
	if _, err := RandomConstraints(16, capVec, 1.5, rng); err == nil {
		t.Error("ratio > 1 accepted")
	}
	if _, err := RandomConstraints(99, capVec, 0.5, rng); err == nil {
		t.Error("insufficient capacity accepted")
	}
}

func TestBuildInstance(t *testing.T) {
	cloud, err := PaperCloudForScale(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(cloud, apps.NewLU(), 64, 10, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Problem.N() != 64 || inst.Problem.M() != 4 {
		t.Errorf("problem is %d×%d, want 64 procs × 4 sites", inst.Problem.N(), inst.Problem.M())
	}
	if len(inst.IterTrace) == 0 {
		t.Error("no iteration trace")
	}
	// Over-capacity request must fail.
	if _, err := BuildInstance(cloud, apps.NewLU(), 128, 1, 0, 1); err == nil {
		t.Error("128 processes on a 64-node cloud accepted")
	}
}

func TestInstanceSimulateAndBaseline(t *testing.T) {
	cloud, err := PaperCloudForScale(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(cloud, apps.NewLU(), 64, 5, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := inst.BaselineSim(3, 9, SimReplay)
	if err != nil {
		t.Fatal(err)
	}
	if base.CommSeconds <= 0 || base.ComputeSeconds <= 0 {
		t.Errorf("baseline = %+v, want positive parts", base)
	}
	pl, dur, err := inst.MapAndTime(StandardMappers(2, 1)[2]) // Geo
	if err != nil {
		t.Fatal(err)
	}
	if dur < 0 {
		t.Error("negative overhead")
	}
	res, err := inst.Simulate(pl, SimReplay)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSeconds >= base.CommSeconds {
		t.Errorf("geo comm %v not below baseline %v", res.CommSeconds, base.CommSeconds)
	}
}

func TestImprovementPct(t *testing.T) {
	if got := ImprovementPct(10, 5); got != 50 {
		t.Errorf("ImprovementPct(10,5) = %v", got)
	}
	if got := ImprovementPct(0, 5); got != 0 {
		t.Errorf("ImprovementPct(0,5) = %v, want 0", got)
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "b"}}
	r.AddRow("1", "hello,world")
	r.AddNote("n=%d", 5)
	s := r.String()
	if !strings.Contains(s, "== x: t ==") || !strings.Contains(s, "note: n=5") {
		t.Errorf("String output malformed:\n%s", s)
	}
	csv := r.CSV()
	if !strings.Contains(csv, `"hello,world"`) {
		t.Errorf("CSV quoting missing:\n%s", csv)
	}
}

func TestHeatmapASCII(t *testing.T) {
	g, err := apps.Graph(apps.NewLU(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := HeatmapASCII(g, 8)
	lines := strings.Split(strings.TrimRight(h, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("heatmap has %d lines, want 8", len(lines))
	}
	for _, l := range lines {
		if len(l) != 8 {
			t.Fatalf("heatmap line %q has width %d", l, len(l))
		}
	}
	if HeatmapASCII(g, 0) != "" {
		t.Error("bins=0 should give empty heatmap")
	}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3"} {
		rep, err := Run(id, quickCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
	}
}

func TestTable2DistanceOrdering(t *testing.T) {
	rep, err := Table2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: us-west, ireland, singapore. Bandwidth must descend, latency ascend.
	var bws, lats []float64
	for _, row := range rep.Rows {
		bw, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		bws = append(bws, bw)
		lats = append(lats, lat)
	}
	if !(bws[0] > bws[2]) {
		t.Errorf("bandwidths not descending with distance: %v", bws)
	}
	if !(lats[0] < lats[2]) {
		t.Errorf("latencies not ascending with distance: %v", lats)
	}
}

func TestFigure3Characteristics(t *testing.T) {
	rep, err := Figure3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("fig3 has %d rows, want 5", len(rep.Rows))
	}
	byApp := map[string][]string{}
	for _, row := range rep.Rows {
		byApp[row[0]] = row
	}
	// NPB kernels are ~100% local; K-means is not.
	for _, name := range []string{"LU", "BT", "SP"} {
		if loc := parsePct(t, byApp[name][7]); loc < 95 {
			t.Errorf("%s locality %v%%, want ≥95%%", name, loc)
		}
	}
	if loc := parsePct(t, byApp["K-means"][7]); loc > 60 {
		t.Errorf("K-means locality %v%%, want <60%% (non-local pattern)", loc)
	}
	// DNN has the smallest volume.
	vol := func(name string) float64 {
		v, err := strconv.ParseFloat(byApp[name][3], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, other := range []string{"LU", "BT", "SP", "K-means"} {
		if vol("DNN") >= vol(other) {
			t.Errorf("DNN volume %v not below %s volume %v", vol("DNN"), other, vol(other))
		}
	}
}

func TestFigure4Runs(t *testing.T) {
	rep, err := Figure4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("quick fig4 has %d rows, want 3", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < 0 {
				t.Errorf("bad overhead cell %q", cell)
			}
		}
	}
}

func TestFigure5GeoWinsEverywhere(t *testing.T) {
	rep, err := Figure5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("fig5 has %d rows, want 5", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		geo := parsePct(t, row[3])
		if geo <= 0 {
			t.Errorf("%s: geo improvement %v%%, want positive", row[0], geo)
		}
		greedy := parsePct(t, row[1])
		if geo < greedy-8 {
			t.Errorf("%s: geo (%v%%) clearly below greedy (%v%%)", row[0], geo, greedy)
		}
	}
}

func TestFigure6CommOnlyShape(t *testing.T) {
	rep, err := Figure6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	geoByApp := map[string]float64{}
	greedyByApp := map[string]float64{}
	for _, row := range rep.Rows {
		greedyByApp[row[0]] = parsePct(t, row[1])
		geoByApp[row[0]] = parsePct(t, row[3])
		if geoByApp[row[0]] < 25 {
			t.Errorf("%s: comm-only geo improvement %v%%, want substantial (paper reports >60%% at its scale)", row[0], geoByApp[row[0]])
		}
	}
	// Greedy should be weak for K-means/DNN and strong for LU (paper Fig 6).
	if greedyByApp["LU"] < 25 {
		t.Errorf("Greedy on LU = %v%%, want strong (paper >40%%)", greedyByApp["LU"])
	}
	if greedyByApp["K-means"] > greedyByApp["LU"] {
		t.Errorf("Greedy on K-means (%v%%) should be weaker than on LU (%v%%)", greedyByApp["K-means"], greedyByApp["LU"])
	}
	for _, name := range []string{"K-means", "DNN"} {
		if geoByApp[name] <= greedyByApp[name] {
			t.Errorf("%s: geo (%v%%) should clearly beat greedy (%v%%)", name, geoByApp[name], greedyByApp[name])
		}
	}
}

func TestFigure7Runs(t *testing.T) {
	rep, err := Figure7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Quick: 3 apps × 2 scales.
	if len(rep.Rows) != 6 {
		t.Fatalf("quick fig7 has %d rows, want 6", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		geo := parsePct(t, row[3])
		if geo <= 0 {
			t.Errorf("%s@%s: geo improvement %v%%, want positive", row[0], row[1], geo)
		}
	}
}

func TestFigure8ConstraintDecay(t *testing.T) {
	rep, err := Figure8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		at20 := parsePct(t, row[1])
		at100 := parsePct(t, row[5])
		if at20 < at100-3 {
			t.Errorf("%s: improvement grows with constraints (%v%% → %v%%)", row[0], at20, at100)
		}
		if at100 > 5 || at100 < -5 {
			t.Errorf("%s: fully constrained improvement %v%%, want ≈0 (both algorithms are pinned)", row[0], at100)
		}
		if at20 <= 0 {
			t.Errorf("%s: improvement over Greedy at 20%% constraints is %v%%, want positive", row[0], at20)
		}
	}
}

func TestFigure9GeoNearOptimal(t *testing.T) {
	rep, err := Figure9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row[1] != "Geo-distributed" {
			continue
		}
		pct := parsePct(t, row[3])
		if pct > 1.0 {
			t.Errorf("%s: Geo at CDF percentile %v%%, paper says <1%%", row[0], pct)
		}
	}
}

func TestFigure10Monotone(t *testing.T) {
	rep, err := Figure10(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		var prev float64 = 2
		// Columns 1..len-2 are the K curve; the last column is Geo.
		for _, cell := range row[1 : len(row)-1] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v > prev+1e-9 {
				t.Errorf("%s: best-of-K curve not nonincreasing: %v", row[0], row)
			}
			prev = v
		}
		geo, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if geo > prev {
			t.Errorf("%s: geo (%v) worse than best-of-K end (%v)", row[0], geo, prev)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow")
	}
	reps, err := RunAll(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(IDs()) {
		t.Errorf("RunAll returned %d reports, want %d", len(reps), len(IDs()))
	}
	for _, rep := range reps {
		if rep.String() == "" || len(rep.Rows) == 0 {
			t.Errorf("%s: empty report", rep.ID)
		}
	}
}

func TestPaperCloudForScaleErrors(t *testing.T) {
	if _, err := PaperCloudForScale(66, 1); err == nil {
		t.Error("non-multiple-of-4 scale accepted")
	}
	c, err := PaperCloudForScale(64, 1)
	if err != nil || c.TotalNodes() != 64 {
		t.Errorf("PaperCloudForScale(64) = %v nodes, err %v", c.TotalNodes(), err)
	}
}

var _ = netmodel.MB // keep import stable if usage shifts

// RunAll executes every experiment in order and returns the reports.
// geobench streams per experiment with its own loop; this one serves
// TestRunAllQuick.
func RunAll(cfg Config) ([]*Report, error) {
	var out []*Report
	for _, id := range IDs() {
		rep, err := Run(id, cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
