package experiments

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/baselines"
	"geoprocmap/internal/core"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/multilevel"
	"geoprocmap/internal/netsim"
	"geoprocmap/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGeoMapperPlacementsGolden pins the paper path across commits:
// TestSeedDeterminism and the serve smokes compare two runs of one build,
// so a change that moves every GeoMapper placement the same way passes
// them. Here the placements of the paper's five workloads on the EC2
// evaluation cloud, over N ∈ {16, 64, 256}, seeds 1–2, constraint ratios
// 0 and 0.2 and κ ∈ {2, 4}, plus the unequal-capacity cells of
// unequalPlacements, must hash to the checked-in digests. Run with
// -update to rewrite the file after a deliberate re-baseline.
func TestGeoMapperPlacementsGolden(t *testing.T) {
	var buf bytes.Buffer
	geo := func(kappa int, seed int64) core.Mapper {
		return &core.GeoMapper{Kappa: kappa, Seed: seed}
	}
	paperPlacements(t, &buf, geo)
	unequalPlacements(t, &buf, geo)
	checkGolden(t, "geomapper_placements.golden", buf.Bytes())
}

// TestMultilevelPlacementsGolden pins MultilevelGeoMapper placements the
// same way, over the same paper instances plus synthetic 16-site cells at
// κ ∈ {7, 8}, where the coarsest-level order search examines only the
// first 720 of the κ! group orders, and the unequal-capacity cells.
func TestMultilevelPlacementsGolden(t *testing.T) {
	var buf bytes.Buffer
	multilevel := func(kappa int, seed int64) core.Mapper {
		return &core.MultilevelGeoMapper{Kappa: kappa, Seed: seed}
	}
	paperPlacements(t, &buf, multilevel)
	for _, n := range []int{1024, 4096} {
		for seed := int64(1); seed <= 2; seed++ {
			p := syntheticProblem(n, 16, seed)
			for _, kappa := range []int{7, 8} {
				writeDigest(t, &buf, multilevel(kappa, seed), p,
					fmt.Sprintf("synthetic m=16 n=%d seed=%d kappa=%d", n, seed, kappa))
			}
		}
	}
	unequalPlacements(t, &buf, multilevel)
	checkGolden(t, "multilevel_placements.golden", buf.Bytes())
}

// TestSiteSetPlacementsGolden pins every placement path that honours
// allowed-site sets: RandomPlacement's constrained sampler (three draws
// from one seeded RNG), GeoMapper with exchange refinement,
// baselines.Greedy and MultilevelGeoMapper on the multiconstraint
// experiment's regional-set instances and on random site-set instances
// with pins, plus Remap evacuations that the greedy pass completes. Two of
// the random instances defeat the multilevel greedy fill at every level,
// so MultilevelGeoMapper answers them from its augmenting-path repair
// fallback.
func TestSiteSetPlacementsGolden(t *testing.T) {
	var buf bytes.Buffer
	type instance struct {
		label string
		p     *core.Problem
		seed  int64
	}
	var instances []instance
	cloud, err := PaperCloudForScale(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps.All() {
		inst, err := BuildInstance(cloud, a, 64, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, instance{"regional " + a.Name(), regionalSets(inst.Problem), 1})
	}
	for _, m := range []int{3, 5, 6} {
		for _, n := range []int{16, 40} {
			for _, slack := range []int{0, 2} {
				for seed := int64(1); seed <= 2; seed++ {
					instances = append(instances, instance{fmt.Sprintf("random m=%d n=%d slack=%d seed=%d", m, n, slack, seed),
						siteSetProblem(n, m, slack, seed), seed})
				}
			}
		}
	}
	for _, c := range []struct {
		m, n int
		seed int64
	}{{5, 16, 31}, {6, 16, 29}} {
		p := siteSetProblem(c.n, c.m, 0, c.seed)
		groups, err := core.GroupSites(p.PC, 4, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		in := &multilevel.Instance{G: multilevel.FromComm(p.Comm), LT: p.LT, BT: p.BT,
			Capacity: p.Capacity, Pin: p.Constraint, Allowed: p.Allowed, Groups: groups}
		if _, _, err := multilevel.Solve(in, multilevel.Options{}); !errors.Is(err, multilevel.ErrInfeasible) {
			t.Fatalf("m=%d n=%d seed=%d no longer reaches the repair fallback: %v", c.m, c.n, c.seed, err)
		}
		instances = append(instances, instance{fmt.Sprintf("fallback m=%d n=%d seed=%d", c.m, c.n, c.seed), p, c.seed})
	}

	for _, in := range instances {
		rng := stats.NewRand(in.seed)
		for draw := 1; draw <= 3; draw++ {
			writeDigest(t, &buf, mapperFunc(func(p *core.Problem) (core.Placement, error) {
				return core.RandomPlacement(p, rng)
			}), in.p, fmt.Sprintf("%s random draw=%d", in.label, draw))
		}
		for _, m := range []core.Mapper{
			&core.GeoMapper{Kappa: 4, Seed: in.seed, RefinePasses: 50},
			&baselines.Greedy{},
			&core.MultilevelGeoMapper{Kappa: 4, Seed: in.seed},
		} {
			writeDigest(t, &buf, m, in.p, in.label+" "+m.Name())
		}
	}

	// Remap: evacuate one dead site from the refined GeoMapper placement,
	// alone and together with degraded-site moves; the digest covers the
	// migration accounting as well as the placement.
	for _, c := range []struct {
		m, n, slack int
		seed        int64
		dead        int
	}{{4, 24, 12, 4, 3}, {5, 24, 12, 2, 2}} {
		p := siteSetProblem(c.n, c.m, c.slack, c.seed)
		stale, err := (&core.GeoMapper{Kappa: 4, Seed: c.seed, RefinePasses: 50}).Map(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []core.RemapOptions{{}, {MoveDegraded: true, HorizonIterations: 1e6}} {
			rep := &faults.Report{DeadSites: []int{c.dead}, DegradedPairs: [][2]int{{(c.dead + 1) % c.m, (c.dead + 2) % c.m}}}
			res, err := core.Remap(p, stale, rep, opt)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "remap m=%d n=%d slack=%d seed=%d dead=%d degraded=%t %x\n", c.m, c.n, c.slack, c.seed, c.dead, opt.MoveDegraded,
				sha256.Sum256([]byte(fmt.Sprint(res.Placement, res.Migrated, res.MigrationSeconds))))
		}
	}
	checkGolden(t, "siteset_placements.golden", buf.Bytes())
}

// TestSimulatedSpansGolden pins the network simulator's numbers across
// commits the way the placement goldens pin the mappers: the five
// workloads at 64 processes on the EC2 evaluation cloud, under GeoMapper
// and a seeded random placement, record the Float64bits of every engine's
// result (trace replay, max-min fluid and processor-sharing fluid, each
// with shared and dedicated WAN) and of SimulateFaultyReplay's span and
// fault report with no schedule and under each faults preset.
func TestSimulatedSpansGolden(t *testing.T) {
	var buf bytes.Buffer
	const n, seed = 64, 1
	cloud, err := PaperCloudForScale(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		mode SimMode
	}{{"replay", SimReplay}, {"fluid", SimFluid}, {"fluidps", SimFluidPS}}
	for _, app := range apps.All() {
		inst, err := BuildInstance(cloud, app, n, 10, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		geo, err := (&core.GeoMapper{Kappa: 4, Seed: seed}).Map(inst.Problem)
		if err != nil {
			t.Fatal(err)
		}
		random, err := core.RandomPlacement(inst.Problem, stats.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range []struct {
			name string
			pl   core.Placement
		}{{"geo", geo}, {"random", random}} {
			label := app.Name() + " " + pl.name
			for _, dedicated := range []bool{false, true} {
				for _, m := range modes {
					r, err := inst.SimulateWith(pl.pl, m.mode, netsim.Options{DedicatedWAN: dedicated})
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&buf, "%s %s dedicated=%t %016x %016x\n", label, m.name, dedicated,
						math.Float64bits(r.ComputeSeconds), math.Float64bits(r.CommSeconds))
				}
			}
			for _, preset := range append([]string{"none"}, faults.PresetNames()...) {
				var sched *faults.Schedule
				if preset != "none" {
					if sched, err = faults.Preset(preset, cloud.M(), seed); err != nil {
						t.Fatal(err)
					}
				}
				r, rep, err := inst.SimulateFaultyReplay(pl.pl, sched, FaultStart)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "%s faulty=%s %016x %016x schedule=%q messages=%d retries=%d dropped=%d blocked=%016x dead=%v degraded=%v\n",
					label, preset, math.Float64bits(r.ComputeSeconds), math.Float64bits(r.CommSeconds),
					rep.Schedule, rep.Messages, rep.Retries, rep.Dropped, math.Float64bits(rep.BlockedSeconds.Float()),
					rep.DeadSites, rep.DegradedPairs)
			}
		}
	}
	checkGolden(t, "simulated_spans.golden", buf.Bytes())
}

// siteSetProblem restricts syntheticProblem(n, m, seed) around a random
// home placement, so every instance is feasible: site capacities are the
// home loads (at least 1) plus slack extra slots on random sites, a tenth
// of the processes are pinned home, and most processes may use only their
// home site or their home site and one other.
func siteSetProblem(n, m, slack int, seed int64) *core.Problem {
	p := syntheticProblem(n, m, seed)
	rng := stats.NewRand(seed)
	home := make([]int, n)
	p.Capacity = mat.NewIntVec(m, 0)
	for i := range home {
		home[i] = rng.Intn(m)
		p.Capacity[home[i]]++
	}
	for k := range p.Capacity {
		if p.Capacity[k] == 0 {
			p.Capacity[k] = 1
		}
	}
	for i := 0; i < slack; i++ {
		p.Capacity[rng.Intn(m)]++
	}
	p.Allowed = make([][]int, n)
	for i, h := range home {
		r := rng.Float64()
		if r < 0.1 {
			p.Constraint[i] = h
		}
		if r < 0.05 || r >= 0.3 {
			set := []int{h}
			if rng.Float64() < 0.7 {
				if s := rng.Intn(m); s != h {
					set = append(set, s)
				}
			}
			p.Allowed[i] = set
		}
	}
	return p
}

// mapperFunc adapts a placement function to core.Mapper for writeDigest.
type mapperFunc func(*core.Problem) (core.Placement, error)

func (f mapperFunc) Name() string                                { return "func" }
func (f mapperFunc) Map(p *core.Problem) (core.Placement, error) { return f(p) }

// paperPlacements writes one digest line per paper instance: the five
// workloads on the EC2 evaluation cloud over N ∈ {16, 64, 256}, seeds 1–2,
// constraint ratios 0 and 0.2 and κ ∈ {2, 4}.
func paperPlacements(t *testing.T, buf *bytes.Buffer, mapper func(kappa int, seed int64) core.Mapper) {
	t.Helper()
	for _, app := range apps.All() {
		for _, n := range []int{16, 64, 256} {
			for seed := int64(1); seed <= 2; seed++ {
				for _, ratio := range []float64{0, 0.2} {
					cloud, err := PaperCloudForScale(n, seed)
					if err != nil {
						t.Fatal(err)
					}
					inst, err := BuildInstance(cloud, app, n, 10, ratio, seed)
					if err != nil {
						t.Fatal(err)
					}
					for _, kappa := range []int{2, 4} {
						writeDigest(t, buf, mapper(kappa, seed), inst.Problem,
							fmt.Sprintf("%s n=%d seed=%d ratio=%g kappa=%d", app.Name(), n, seed, ratio, kappa))
					}
				}
			}
		}
	}
}

// unequalPlacements writes one digest line per unpinned synthetic instance
// whose site capacities differ: 4 sites with capacities from two values
// and 8 sites with capacities from three (each value on a seeded random
// share of the sites), over N ∈ {64, 256}, seeds 1–2 and κ ∈ {2, 4}. Consecutive group orders then visit sites of differing
// capacity, which the equal-capacity paper cloud never does.
func unequalPlacements(t *testing.T, buf *bytes.Buffer, mapper func(kappa int, seed int64) core.Mapper) {
	t.Helper()
	for _, c := range []struct{ m, values int }{{4, 2}, {8, 3}} {
		for _, n := range []int{64, 256} {
			for seed := int64(1); seed <= 2; seed++ {
				p := syntheticProblem(n, c.m, seed)
				base, perm := (n+c.m-1)/c.m, stats.NewRand(seed).Perm(c.m)
				for k := range p.Capacity {
					p.Capacity[k] = base * (2 + perm[k]%c.values) / 2
				}
				for _, kappa := range []int{2, 4} {
					writeDigest(t, buf, mapper(kappa, seed), p,
						fmt.Sprintf("unequal m=%d n=%d seed=%d kappa=%d capacity=%v", c.m, n, seed, kappa, p.Capacity))
				}
			}
		}
	}
}

// writeDigest maps p and writes the label with the placement's digest.
func writeDigest(t *testing.T, buf *bytes.Buffer, m core.Mapper, p *core.Problem, label string) {
	t.Helper()
	pl, err := m.Map(p)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(buf, "%s %x\n", label, sha256.Sum256([]byte(fmt.Sprint(pl))))
}

// checkGolden compares got with testdata/name line by line, rewriting the
// file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("golden line differs:\n got  %s\n want %s", gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d digest lines, want %d", len(gl)-1, len(wl)-1)
		}
	}
}
