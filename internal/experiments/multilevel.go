package experiments

import (
	"fmt"
	"runtime"
	"strconv"

	"geoprocmap/internal/baselines"
	"geoprocmap/internal/comm"
	"geoprocmap/internal/core"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/service"
	"geoprocmap/internal/stats"
)

// multilevelAnchorSites are real EC2 region coordinates; synthetic clouds
// larger than this list extend it with a deterministic low-discrepancy
// spread so K-means grouping still sees plausible geography.
var multilevelAnchorSites = []geo.LatLon{
	{Lat: 38.95, Lon: -77.45},  // us-east-1
	{Lat: 37.35, Lon: -121.96}, // us-west-1
	{Lat: 45.84, Lon: -119.29}, // us-west-2
	{Lat: 53.35, Lon: -6.26},   // eu-west-1
	{Lat: 50.12, Lon: 8.68},    // eu-central-1
	{Lat: 1.29, Lon: 103.85},   // ap-southeast-1
	{Lat: -33.87, Lon: 151.21}, // ap-southeast-2
	{Lat: 35.68, Lon: 139.69},  // ap-northeast-1
	{Lat: 19.08, Lon: 72.88},   // ap-south-1
	{Lat: -23.55, Lon: -46.63}, // sa-east-1
	{Lat: 45.50, Lon: -73.57},  // ca-central-1
}

// syntheticSites returns m site coordinates: the EC2 anchors first, then a
// golden-angle spread over the populated latitudes.
func syntheticSites(m int) []geo.LatLon {
	pc := make([]geo.LatLon, m)
	for k := 0; k < m; k++ {
		if k < len(multilevelAnchorSites) {
			pc[k] = multilevelAnchorSites[k]
			continue
		}
		i := k - len(multilevelAnchorSites)
		lon := -180 + 137.5*float64(i+1)
		for lon >= 180 {
			lon -= 360
		}
		pc[k] = geo.LatLon{Lat: -40 + 18*float64(i%5), Lon: lon}
	}
	return pc
}

// syntheticProblem builds a mapping problem big enough to show the
// multilevel scaling story without profiling a real workload: a sparse
// ring + stride + butterfly communication pattern (≈4 directed edges per
// process, so N = 100k stays cheap to build) over m sites whose LT/BT
// matrices follow great-circle distance, the same shape the paper's EC2
// gauging produced.
func syntheticProblem(n, m int, seed int64) *core.Problem {
	g := comm.NewGraph(n)
	rng := stats.NewRand(seed)
	stride := n / 4
	if stride < 2 {
		stride = 2
	}
	for i := 0; i < n; i++ {
		g.AddTraffic(i, (i+1)%n, 2e6*(1+rng.Float64()), 20)
		g.AddTraffic(i, (i+stride)%n, 5e5*(1+rng.Float64()), 8)
		// Butterfly exchange partner: xor with a power of two, the
		// pattern collectives such as recursive doubling produce.
		bit := 1 << uint(i%10)
		if j := i ^ bit; j < n && j != i {
			g.AddTraffic(i, j, 2e5*(1+rng.Float64()), 4)
		}
	}
	pc := syntheticSites(m)
	lt := mat.NewSquare(m)
	bt := mat.NewSquare(m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				lt.Set(k, l, 0.0002)
				bt.Set(k, l, 1e9)
				continue
			}
			km := geo.HaversineKm(pc[k], pc[l])
			lt.Set(k, l, 0.0005+km*5e-6)
			bt.Set(k, l, 2.5e8/(1+km/5000))
		}
	}
	return &core.Problem{
		Comm:       g,
		LT:         lt,
		BT:         bt,
		PC:         pc,
		Capacity:   mat.NewIntVec(m, (n+m-1)/m+n/(8*m)+1),
		Constraint: mat.NewIntVec(n, core.Unconstrained),
	}
}

// ExtMultilevel is the cost-vs-time Pareto sweep for the multilevel
// mapper: at each (sites, N) cell it runs every algorithm that is still
// tractable there and reports cost (normalized to the multilevel result)
// and mapping wall-clock. The flat paper heuristic drops out above
// N ≈ 4096 (it runs a full greedy fill per group order) and MPIPP above a few
// hundred processes; the multilevel pipeline is the only entry left at
// 32 sites × 100k processes, which it solves in seconds.
func ExtMultilevel(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	type cell struct {
		m, n   int
		geo    bool // flat paper heuristic still tractable
		greedy bool
		mpipp  bool
	}
	cells := []cell{
		{m: 4, n: 256, geo: true, greedy: true, mpipp: true},
		{m: 8, n: 1024, geo: true, greedy: true},
		{m: 8, n: 4096, geo: true, greedy: true},
		{m: 16, n: 16384, greedy: true},
		{m: 32, n: 100000},
	}
	if cfg.Quick {
		cells = []cell{
			{m: 4, n: 128, geo: true, greedy: true, mpipp: true},
			{m: 8, n: 512, geo: true, greedy: true},
			{m: 32, n: 4096},
		}
	}
	rep := &Report{
		ID:     "multilevel",
		Title:  "Multilevel mapper: cost vs mapping time across scale",
		Header: []string{"sites", "N", "mapper", "cost", "ratio", "map_ms"},
	}
	workers := cfg.Workers
	for _, c := range cells {
		p := syntheticProblem(c.n, c.m, cfg.Seed)
		inst := &Instance{Problem: p, N: c.n}
		kappa := 4
		if c.m < kappa {
			kappa = c.m
		}
		type entry struct {
			name   string
			mapper core.Mapper
		}
		entries := []entry{{"multilevel", &core.MultilevelGeoMapper{Kappa: kappa, Seed: cfg.Seed, Workers: workers}}}
		if c.geo {
			entries = append(entries, entry{"geo", &core.GeoMapper{Kappa: kappa, Seed: cfg.Seed, Workers: workers}})
		}
		if c.greedy {
			entries = append(entries, entry{"greedy", &baselines.Greedy{}})
		}
		if c.mpipp {
			entries = append(entries, entry{"mpipp", &baselines.MPIPP{Seed: cfg.Seed}})
		}
		var mlCost float64
		for i, e := range entries {
			pl, dur, err := inst.MapAndTime(e.mapper)
			if err != nil {
				return nil, fmt.Errorf("%s at %d sites, N=%d: %w", e.name, c.m, c.n, err)
			}
			if err := p.CheckPlacement(pl); err != nil {
				return nil, fmt.Errorf("%s at %d sites, N=%d: infeasible: %w", e.name, c.m, c.n, err)
			}
			cost := p.Cost(pl).Float()
			if i == 0 {
				mlCost = cost
			}
			rep.AddRow(
				fmt.Sprintf("%d", c.m),
				fmt.Sprintf("%d", c.n),
				e.name,
				fmt.Sprintf("%.4g", cost),
				fmt.Sprintf("%.3f", cost/mlCost),
				fmt.Sprintf("%.1f", dur.Seconds()*1e3),
			)
		}
	}
	rep.AddNote("ratio = cost / multilevel cost in the same cell (lower is better; < 1 means the other mapper won)")
	rep.AddNote("cells omit mappers that stop being tractable: the flat heuristic's greedy fill is quadratic per group order, MPIPP's swap search quadratic per pass")
	rep.AddNote("multilevel workers = %d (0 = GOMAXPROCS), GOMAXPROCS = %d, host cores = %d", workers, runtime.GOMAXPROCS(0), runtime.NumCPU()) //geolint:detsource host metadata recorded in the report notes, never in placements
	return rep, nil
}

// MultilevelSmoke is the multilevel digest gate: one mid-size instance
// (16 sites, 4096 processes) mapped with the multilevel pipeline at
// Workers = 1 and Workers = GOMAXPROCS (at least 2). The two placements
// must be byte-identical, or the experiment fails. Each row carries the
// exact cost and the placement digest, which TestMultilevelSmoke pins
// across commits.
func MultilevelSmoke(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	n, m := 4096, 16
	if cfg.Quick {
		n = 1024
	}
	p := syntheticProblem(n, m, cfg.Seed)
	inst := &Instance{Problem: p, N: n}
	rep := &Report{
		ID:     "mlsmoke",
		Title:  "Multilevel smoke: worker-count determinism digest",
		Header: []string{"workers", "cost", "map_ms", "identical", "digest"},
	}
	maxWorkers := runtime.GOMAXPROCS(0) //geolint:detsource worker count only; the experiment fails unless placements are byte-identical
	if maxWorkers < 2 {
		// On a single-core host GOMAXPROCS resolves to 1, which would
		// compare the serial path against itself; force two goroutines so
		// the range split and deterministic reduction are exercised.
		maxWorkers = 2
	}
	var ref core.Placement
	for _, w := range []int{1, maxWorkers} {
		mm := &core.MultilevelGeoMapper{Kappa: 4, Seed: cfg.Seed, Workers: w}
		pl, dur, err := inst.MapAndTime(mm)
		if err != nil {
			return nil, err
		}
		if err := p.CheckPlacement(pl); err != nil {
			return nil, fmt.Errorf("workers=%d: infeasible: %w", w, err)
		}
		identical := true
		if ref == nil {
			ref = pl
		} else {
			identical = pl.Equal(ref)
		}
		rep.AddRow(
			fmt.Sprintf("%d", w),
			strconv.FormatFloat(p.Cost(pl).Float(), 'g', -1, 64),
			fmt.Sprintf("%.1f", dur.Seconds()*1e3),
			fmt.Sprintf("%t", identical),
			service.PlacementDigest(pl),
		)
		if !identical {
			return nil, fmt.Errorf("multilevel smoke: Workers=%d placement diverges from Workers=1", w)
		}
	}
	rep.AddNote("N = %d processes, %d sites; identical = placement byte-equal to the Workers=1 run; digest = service.PlacementDigest", n, m)
	return rep, nil
}
