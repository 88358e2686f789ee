package geoprocmap

// The benchmarks in this file regenerate the paper's evaluation artifacts
// (one benchmark per table and figure, running the same drivers as the
// geobench command at Quick scale) and measure the library's hot paths and
// the ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report the wall time of regenerating each
// artifact; the ablation benchmarks additionally report solution cost via
// b.ReportMetric so the quality impact of each design choice is visible
// next to its time cost.

import (
	"fmt"
	"testing"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/baselines"
	"geoprocmap/internal/calib"
	"geoprocmap/internal/core"
	"geoprocmap/internal/experiments"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/mpi"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/netsim"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/trace"
)

// --- one benchmark per paper artifact -----------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Seed: 1, Quick: true}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }

// --- shared fixtures ------------------------------------------------------

func buildProblem(b *testing.B, appName string, n int) *core.Problem {
	b.Helper()
	cloud, err := experiments.PaperCloudForScale(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := apps.ByName(appName)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := experiments.BuildInstance(cloud, a, n, 1, 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return inst.Problem
}

// --- algorithm micro-benchmarks ------------------------------------------

func BenchmarkGeoMapper64(b *testing.B) {
	p := buildProblem(b, "LU", 64)
	m := &core.GeoMapper{Kappa: 4, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeoMapper1024(b *testing.B) {
	p := buildProblem(b, "LU", 1024)
	m := &core.GeoMapper{Kappa: 4, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedy64(b *testing.B) {
	p := buildProblem(b, "LU", 64)
	m := &baselines.Greedy{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPIPP64(b *testing.B) {
	p := buildProblem(b, "LU", 64)
	m := &baselines.MPIPP{Seed: 1, Restarts: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostEvaluation256(b *testing.B) {
	p := buildProblem(b, "K-means", 256)
	pl, err := core.RandomPlacement(p, stats.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Cost(pl)
	}
}

// --- simulator benchmarks -------------------------------------------------

func BenchmarkReplayLU256(b *testing.B) {
	cloud, err := experiments.PaperCloudForScale(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := apps.Trace(apps.NewLU(), 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	mapping := make([]int, 256)
	for i := range mapping {
		mapping[i] = i / 64
	}
	sim, err := netsim.New(cloud, mapping)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ReplayTrace(rec.Events()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFluidPhase64(b *testing.B) {
	cloud, err := experiments.PaperCloudForScale(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := apps.Trace(apps.NewKMeans(), 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	mapping := make([]int, 64)
	for i := range mapping {
		mapping[i] = i / 16
	}
	sim, err := netsim.New(cloud, mapping)
	if err != nil {
		b.Fatal(err)
	}
	phases := netsim.PhasesFromEvents(rec.Events())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ph := range phases {
			if _, err := sim.SimulatePhase(ph); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTraceCompressLU(b *testing.B) {
	rec, err := apps.Trace(apps.NewLU(), 64, 50)
	if err != nil {
		b.Fatal(err)
	}
	var events []trace.Event // process 9's sends
	for _, e := range rec.Events() {
		if e.Src == 9 {
			events = append(events, e)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := trace.Compress(events)
		if c.Size() == 0 {
			b.Fatal("empty compression")
		}
	}
}

// --- ablation benchmarks (design choices from DESIGN.md) ------------------

// BenchmarkAblationGrouping compares the full algorithm (κ=3 K-means
// grouping over 6 sites → ≤3! orders) against the ungrouped variant: at
// κ = M = 6, K-means gives one-site groups, so the search covers all
// 6! = 720 site orders. Grouping trades a tiny amount of cost for an
// order-of-magnitude overhead reduction.
func BenchmarkAblationGrouping(b *testing.B) {
	regions := []string{"us-east-1", "us-west-2", "eu-west-1", "eu-central-1", "ap-southeast-1", "ap-northeast-1"}
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", regions, 8, netmodel.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := experiments.BuildInstance(cloud, apps.NewKMeans(), 48, 1, 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name   string
		mapper *core.GeoMapper
	}{
		{"grouped-k3", &core.GeoMapper{Kappa: 3, Seed: 1}},
		{"ungrouped-720-orders", &core.GeoMapper{Kappa: 6, Seed: 1}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				pl, err := variant.mapper.Map(inst.Problem)
				if err != nil {
					b.Fatal(err)
				}
				cost = inst.Problem.Cost(pl).Float()
			}
			b.ReportMetric(cost, "cost")
		})
	}
}

// BenchmarkAblationOrderSearch compares the κ! group-order search against a
// single order (κ = 1: one group, so one order): the search is where the
// algorithm's edge over plain greedy packing comes from.
func BenchmarkAblationOrderSearch(b *testing.B) {
	p := buildProblem(b, "K-means", 64)
	for _, variant := range []struct {
		name   string
		mapper *core.GeoMapper
	}{
		{"full-order-search", &core.GeoMapper{Kappa: 4, Seed: 1}},
		{"single-order", &core.GeoMapper{Kappa: 1, Seed: 1}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				pl, err := variant.mapper.Map(p)
				if err != nil {
					b.Fatal(err)
				}
				cost = p.Cost(pl).Float()
			}
			b.ReportMetric(cost, "cost")
		})
	}
}

// BenchmarkOrderSearchParallel measures the parallel κ! group-order
// search against the serial path on the same problems: κ = 6..8 over an
// 8-region cloud at N = 64 and 256 with a fifth of the processes pinned,
// serial (Workers=1) versus Workers=GOMAXPROCS. The parallel reduction
// returns byte-identical placements, so the sub-benchmarks differ only in
// wall-clock. The unpinned κ = 8 cells measure the search where every
// order after a worker's first is a replay, priced from the recorded
// fill's site-pair traffic. The recorded baseline lives in
// results/BENCH_orders.json (make bench-orders).
func BenchmarkOrderSearchParallel(b *testing.B) {
	regions := []string{"us-east-1", "us-west-1", "us-west-2", "eu-west-1",
		"eu-central-1", "ap-southeast-1", "ap-southeast-2", "ap-northeast-1"}
	for _, c := range []struct {
		prefix string
		ratio  float64
		kappas []int
	}{
		{"", 0.2, []int{6, 7, 8}},
		{"unpinned/", 0, []int{8}},
	} {
		for _, n := range []int{64, 256} {
			cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", regions, n/len(regions), netmodel.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			inst, err := experiments.BuildInstance(cloud, apps.NewKMeans(), n, 1, c.ratio, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, kappa := range c.kappas {
				for _, workers := range []int{1, 0} { // 1 = serial, 0 = GOMAXPROCS
					name := fmt.Sprintf("%skappa=%d/n=%d/serial", c.prefix, kappa, n)
					if workers != 1 {
						name = fmt.Sprintf("%skappa=%d/n=%d/parallel", c.prefix, kappa, n)
					}
					m := &core.GeoMapper{Kappa: kappa, Seed: 1, Workers: workers}
					b.Run(name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if _, err := m.Map(inst.Problem); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkAblationCostModel maps with degenerate cost inputs — latency
// zeroed (bandwidth-only) or bandwidth flattened (latency-only) — and
// evaluates the resulting placements on the true α–β cost, quantifying
// what each half of the model contributes.
func BenchmarkAblationCostModel(b *testing.B) {
	p := buildProblem(b, "K-means", 64)
	variants := []struct {
		name   string
		mutate func(*core.Problem)
	}{
		{"full-alpha-beta", func(*core.Problem) {}},
		{"bandwidth-only", func(q *core.Problem) { q.LT = mat.NewSquare(q.M()) }},
		{"latency-only", func(q *core.Problem) {
			flat := mat.NewSquare(q.M())
			for i := 0; i < q.M(); i++ {
				for j := 0; j < q.M(); j++ {
					flat.Set(i, j, 1e9)
				}
			}
			q.BT = flat
		}},
	}
	for _, variant := range variants {
		b.Run(variant.name, func(b *testing.B) {
			mutated := &core.Problem{
				Comm: p.Comm, LT: p.LT.Clone(), BT: p.BT.Clone(),
				PC: p.PC, Capacity: p.Capacity, Constraint: p.Constraint,
			}
			variant.mutate(mutated)
			m := &core.GeoMapper{Kappa: 4, Seed: 1}
			var cost float64
			for i := 0; i < b.N; i++ {
				pl, err := m.Map(mutated)
				if err != nil {
					b.Fatal(err)
				}
				cost = p.Cost(pl).Float() // evaluate on the TRUE model
			}
			b.ReportMetric(cost, "true-cost")
		})
	}
}

// BenchmarkAblationCalibration measures the site-pair calibration and
// reports its probe-session overhead next to the all-node-pairs cost it
// replaces (the paper's 12 minutes vs 180+ days argument).
func BenchmarkAblationCalibration(b *testing.B) {
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions, 128, netmodel.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var res *calib.Result
	for i := 0; i < b.N; i++ {
		res, err = calib.Calibrate(cloud, calib.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.OverheadSeconds.Float()/60, "site-pair-min")
	b.ReportMetric(calib.AllPairsOverheadSeconds(cloud.TotalNodes(), 60).Float()/86400, "all-pairs-days")
}

// BenchmarkAblationRefinement quantifies the optional exchange-refinement
// extension: Algorithm 1 as published versus Algorithm 1 plus bounded
// pairwise-exchange polish on the true cost.
func BenchmarkAblationRefinement(b *testing.B) {
	p := buildProblem(b, "DNN", 64)
	for _, variant := range []struct {
		name   string
		mapper *core.GeoMapper
	}{
		{"algorithm1-as-published", &core.GeoMapper{Kappa: 4, Seed: 1}},
		{"with-exchange-refinement", &core.GeoMapper{Kappa: 4, Seed: 1, RefinePasses: 10}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				pl, err := variant.mapper.Map(p)
				if err != nil {
					b.Fatal(err)
				}
				cost = p.Cost(pl).Float()
			}
			b.ReportMetric(cost, "cost")
		})
	}
}

// BenchmarkMPIRuntime measures the virtual-MPI scheduler's throughput on a
// collective-heavy program (64 ranks × allreduce+barrier per iteration).
func BenchmarkMPIRuntime(b *testing.B) {
	cloud, err := experiments.PaperCloudForScale(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	mapping := make([]int, 64)
	for i := range mapping {
		mapping[i] = i / 16
	}
	w, err := mpi.NewWorld(cloud, mapping)
	if err != nil {
		b.Fatal(err)
	}
	prog := func(c *mpi.Comm) error {
		for it := 0; it < 5; it++ {
			if err := c.Compute(0.01); err != nil {
				return err
			}
			if err := c.Allreduce(64<<10, it*4); err != nil {
				return err
			}
			if err := c.Barrier(it*4 + 2); err != nil {
				return err
			}
		}
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}
