package experiments

import (
	"fmt"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/baselines"
	"geoprocmap/internal/core"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/stats"
)

// Figure4 reproduces Figure 4: optimization overhead of the compared
// algorithms at increasing scale (sites/processes), normalized to the
// Baseline random mapper's overhead.
func Figure4(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	scales := []struct{ sites, procs int }{
		{1, 32}, {2, 64}, {4, 64}, {4, 128}, {4, 256},
	}
	if cfg.Quick {
		scales = scales[:3]
	}
	r := &Report{
		ID:     "fig4",
		Title:  "Optimization overhead vs scale, normalized to Baseline",
		Header: []string{"Sites/Processes", "Greedy", "MPIPP", "Geo-distributed"},
	}
	for _, sc := range scales {
		cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge",
			netmodel.PaperEC2Regions[:sc.sites], sc.procs/sc.sites, netmodel.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		inst, err := BuildInstance(cloud, apps.NewLU(), sc.procs, 1, cfg.ConstraintRatio, cfg.Seed)
		if err != nil {
			return nil, err
		}
		_, baseDur, err := inst.MapAndTime(&baselines.Random{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		base := baseDur.Seconds()
		if base <= 0 {
			base = 1e-9
		}
		row := []string{fmt.Sprintf("%d/%d", sc.sites, sc.procs)}
		for _, m := range StandardMappers(cfg.Seed, cfg.Workers) {
			_, dur, err := inst.MapAndTime(m)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", dur.Seconds()/base))
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("Paper shape: MPIPP ≫ Greedy ≈ Geo at small scale; Geo grows with sites (κ! orders) and processes (N²).")
	return r, nil
}

// appTimes simulates baseline and per-mapper run times for one instance.
type appTimes struct {
	baseline SimResult
	results  map[string]SimResult
	overhead map[string]float64
}

func measureApp(inst *Instance, cfg Config, mode SimMode) (*appTimes, error) {
	base, err := inst.BaselineSim(cfg.repeats(), cfg.Seed+100, mode)
	if err != nil {
		return nil, err
	}
	out := &appTimes{
		baseline: base,
		results:  map[string]SimResult{},
		overhead: map[string]float64{},
	}
	for _, m := range StandardMappers(cfg.Seed, cfg.Workers) {
		pl, dur, err := inst.MapAndTime(m)
		if err != nil {
			return nil, err
		}
		res, err := inst.Simulate(pl, mode)
		if err != nil {
			return nil, err
		}
		out.results[m.Name()] = res
		out.overhead[m.Name()] = dur.Seconds()
	}
	return out, nil
}

// Figure5 reproduces Figure 5: overall (computation + communication +
// optimization overhead) improvement over Baseline for the five workloads
// on the paper's EC2 deployment (4 regions × 16 nodes, 64 processes).
func Figure5(cfg Config) (*Report, error) {
	return improvementFigure(cfg, "fig5",
		"Overall improvement over Baseline on the EC2-model cloud (64 processes, 4 regions)",
		true, apps.All())
}

// Figure6 reproduces Figure 6: communication-time-only improvement over
// Baseline in simulation, same deployment. As in the paper's simulation
// study, communication time is the α–β model's prediction (Formula 3),
// with computation and I/O excluded.
func Figure6(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig6",
		Title:  "Communication-only improvement over Baseline in simulation (64 processes, 4 regions)",
		Header: []string{"App", "Greedy", "MPIPP", "Geo-distributed"},
	}
	cloud, err := PaperCloudForScale(64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	names := []string{"Greedy", "MPIPP", "Geo-distributed"}
	for _, a := range apps.All() {
		sums := make([]float64, len(names))
		for d := 0; d < cfg.draws(); d++ {
			seed := cfg.draw(d).Seed
			inst, err := BuildInstance(cloud, a, 64, a.DefaultIters(), cfg.ConstraintRatio, seed)
			if err != nil {
				return nil, err
			}
			base, err := inst.BaselineCost(cfg.repeats(), seed+100)
			if err != nil {
				return nil, err
			}
			for i, m := range StandardMappers(seed, cfg.Workers) {
				pl, _, err := inst.MapAndTime(m)
				if err != nil {
					return nil, err
				}
				sums[i] += ImprovementPct(base, inst.CommCost(pl))
			}
		}
		row := []string{a.Name()}
		for i := range names {
			row = append(row, fmt.Sprintf("%.0f%%", sums[i]/float64(cfg.draws())))
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("Paper shape: Geo >60%% for all apps; improvements exceed Figure 5 because computation/IO time is excluded.")
	return r, nil
}

// improvementFigure drives Figure 5: end-to-end trace-replay improvement
// including computation, I/O and optimization overhead.
func improvementFigure(cfg Config, id, title string, includeCompute bool, workloads []apps.App) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"App", "Greedy", "MPIPP", "Geo-distributed"},
	}
	cloud, err := PaperCloudForScale(64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	names := []string{"Greedy", "MPIPP", "Geo-distributed"}
	for _, a := range workloads {
		sums := make([]float64, len(names))
		for d := 0; d < cfg.draws(); d++ {
			dc := cfg.draw(d)
			inst, err := BuildInstance(cloud, a, 64, a.DefaultIters(), dc.ConstraintRatio, dc.Seed)
			if err != nil {
				return nil, err
			}
			times, err := measureApp(inst, dc, SimReplay)
			if err != nil {
				return nil, err
			}
			for i, name := range names {
				res := times.results[name]
				var baseline, v float64
				if includeCompute {
					baseline = times.baseline.Total()
					v = res.Total() + times.overhead[name]
				} else {
					baseline = times.baseline.CommSeconds
					v = res.CommSeconds
				}
				sums[i] += ImprovementPct(baseline, v)
			}
		}
		row := []string{a.Name()}
		for i := range names {
			row = append(row, fmt.Sprintf("%.0f%%", sums[i]/float64(cfg.draws())))
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("Paper shape: Geo wins everywhere; Greedy strong on LU/BT/SP, weak on K-means; DNN gains smallest (communication is a small fraction).")
	return r, nil
}

// Figure7 reproduces Figure 7: communication improvement over Baseline at
// scales from 64 to 8192 machines (4 regions, even split) for LU, K-means
// and DNN, comparing Greedy and Geo-distributed. MPIPP is omitted beyond
// 1000 processes as in the paper (its overhead dominates).
func Figure7(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	scales := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	if cfg.Quick {
		scales = []int{64, 128}
	}
	r := &Report{
		ID:     "fig7",
		Title:  "Communication improvement over Baseline vs scale (4 regions)",
		Header: []string{"App", "Machines", "Greedy", "Geo-distributed"},
	}
	for _, name := range []string{"LU", "K-means", "DNN"} {
		a, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, n := range scales {
			cloud, err := PaperCloudForScale(n, cfg.Seed)
			if err != nil {
				return nil, err
			}
			draws := cfg.draws()
			if n >= 1024 && draws > 2 {
				draws = 2
			}
			sums := make([]float64, 2)
			for d := 0; d < draws; d++ {
				seed := cfg.draw(d).Seed
				inst, err := BuildInstance(cloud, a, n, 1, cfg.ConstraintRatio, seed)
				if err != nil {
					return nil, err
				}
				base, err := inst.BaselineCost(cfg.repeats(), seed+7)
				if err != nil {
					return nil, err
				}
				for i, m := range []core.Mapper{&baselines.Greedy{}, &core.GeoMapper{Kappa: 4, Seed: seed, Workers: cfg.Workers}} {
					pl, _, err := inst.MapAndTime(m)
					if err != nil {
						return nil, err
					}
					sums[i] += ImprovementPct(base, inst.CommCost(pl))
				}
			}
			row := []string{name, fmt.Sprintf("%d", n)}
			for i := range sums {
				row = append(row, fmt.Sprintf("%.0f%%", sums[i]/float64(draws)))
			}
			r.Rows = append(r.Rows, row)
		}
	}
	r.AddNote("Paper shape: improvements decay slowly with scale; Geo stays >50%% even at 8192; Greedy <10%% for K-means/DNN but >30%% for LU.")
	return r, nil
}

// Figure8 reproduces Figure 8: Geo-distributed's communication improvement
// over Greedy as the data-movement constraint ratio grows from 0.2 to 1.0.
func Figure8(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	ratios := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	r := &Report{
		ID:     "fig8",
		Title:  "Geo-distributed improvement over Greedy vs constraint ratio (64 processes)",
		Header: []string{"App", "20%", "40%", "60%", "80%", "100%"},
	}
	cloud, err := PaperCloudForScale(64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"LU", "K-means", "DNN"} {
		a, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, ratio := range ratios {
			var sum float64
			for d := 0; d < cfg.draws(); d++ {
				seed := cfg.draw(d).Seed
				inst, err := BuildInstance(cloud, a, 64, 1, ratio, seed)
				if err != nil {
					return nil, err
				}
				greedyPl, _, err := inst.MapAndTime(&baselines.Greedy{})
				if err != nil {
					return nil, err
				}
				geoPl, _, err := inst.MapAndTime(&core.GeoMapper{Kappa: 4, Seed: seed, Workers: cfg.Workers})
				if err != nil {
					return nil, err
				}
				sum += ImprovementPct(inst.CommCost(greedyPl), inst.CommCost(geoPl))
			}
			row = append(row, fmt.Sprintf("%.0f%%", sum/float64(cfg.draws())))
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("Paper shape: concave decay for LU/K-means (small ratios barely hurt), near-linear decay for DNN; 100%% pins everything so the gap closes.")
	return r, nil
}

// Figure9 reproduces Figure 9: the Monte Carlo CDF of communication cost
// and where each algorithm's solution falls on it. The paper uses 10M
// random mappings; the default here is 100k (2k under Quick), which pins
// the percentiles well enough to verify the paper's <1% / <0.1% claims.
func Figure9(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	samples := 100_000
	if cfg.Quick {
		samples = 2_000
	}
	r := &Report{
		ID:     "fig9",
		Title:  fmt.Sprintf("Monte Carlo CDF position of each algorithm (%d samples, cost model)", samples),
		Header: []string{"App", "Algorithm", "NormCost", "CDF percentile"},
	}
	cloud, err := PaperCloudForScale(64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"LU", "K-means", "DNN"} {
		a, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		inst, err := BuildInstance(cloud, a, 64, 1, cfg.ConstraintRatio, cfg.Seed)
		if err != nil {
			return nil, err
		}
		mc := &baselines.MonteCarlo{Seed: cfg.Seed}
		costs, err := mc.Sample(inst.Problem, samples)
		if err != nil {
			return nil, err
		}
		cdf := stats.NewCDF(costs)
		maxCost := stats.Max(costs)
		for _, m := range StandardMappers(cfg.Seed, cfg.Workers) {
			pl, _, err := inst.MapAndTime(m)
			if err != nil {
				return nil, err
			}
			c := inst.Problem.Cost(pl)
			r.AddRow(name, m.Name(),
				fmt.Sprintf("%.3f", c.Float()/maxCost),
				fmt.Sprintf("%.3f%%", 100*cdf.At(c.Float())))
		}
	}
	r.AddNote("Paper shape: Geo is near-optimal — below the 1%% percentile for LU and 0.1%% for K-means/DNN; Greedy ≈ random (50%%) on K-means/DNN.")
	r.AddNote("Cost here is the α–β model of communication time (Formula 3), the quantity the paper's simulator measures.")
	return r, nil
}

// Figure10 reproduces Figure 10: the best cost found by K random mappings
// as K grows (normalized to the random-mapping mean), against
// Geo-distributed's cost. The paper runs K up to 10^7; the default here is
// 10^5 (10^3 under Quick).
func Figure10(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	maxExp := 5
	if cfg.Quick {
		maxExp = 3
	}
	var ks []int
	for e, k := 0, 1; e <= maxExp; e, k = e+1, k*10 {
		ks = append(ks, k)
	}
	r := &Report{
		ID:    "fig10",
		Title: "Normalized minimal cost of best-of-K random mapping vs K",
		Header: append([]string{"App"}, func() []string {
			var h []string
			for _, k := range ks {
				h = append(h, fmt.Sprintf("K=%d", k))
			}
			return append(h, "Geo-distributed")
		}()...),
	}
	cloud, err := PaperCloudForScale(64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"LU", "K-means", "DNN"} {
		a, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		inst, err := BuildInstance(cloud, a, 64, 1, cfg.ConstraintRatio, cfg.Seed)
		if err != nil {
			return nil, err
		}
		mc := &baselines.MonteCarlo{Seed: cfg.Seed}
		curve, err := mc.BestOfK(inst.Problem, ks)
		if err != nil {
			return nil, err
		}
		// Normalize by the expected random cost (a modest sample mean).
		sample, err := (&baselines.MonteCarlo{Seed: cfg.Seed + 3}).Sample(inst.Problem, 200)
		if err != nil {
			return nil, err
		}
		mean := stats.Mean(sample)
		row := []string{name}
		for _, c := range curve {
			row = append(row, fmt.Sprintf("%.3f", c/mean))
		}
		geoPl, _, err := inst.MapAndTime(&core.GeoMapper{Kappa: 4, Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("%.3f", inst.Problem.Cost(geoPl).Float()/mean))
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("Paper shape: best-of-K decreases ≈ log(K); Geo-distributed matches the Monte Carlo optimum that needs K ≈ 10^4 samples.")
	return r, nil
}
