package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/baselines"
	"geoprocmap/internal/calib"
	"geoprocmap/internal/core"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/netsim"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/trace"
	"geoprocmap/internal/units"
)

// Config tunes an experiment run.
type Config struct {
	// Seed drives every random choice (cloud jitter, calibration noise,
	// constraint sampling, baseline mappings).
	Seed int64
	// Quick shrinks sample counts and scale sweeps so the full suite runs
	// in seconds (used by tests); the defaults reproduce the paper's
	// settings where tractable on one machine.
	Quick bool
	// ConstraintRatio is the fraction of pinned processes (paper default 0.2).
	ConstraintRatio float64
	// Workers is the geo mapper's order-search parallelism for every
	// GeoMapper an experiment constructs (0 = GOMAXPROCS, 1 = serial).
	// Any value produces byte-identical placements — the parallel search
	// reduces deterministically — so it never perturbs reported results,
	// only wall-clock overhead columns.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.ConstraintRatio == 0 { //geolint:ignore floatcmp zero-value Config default sentinel; 0 is exactly representable
		c.ConstraintRatio = 0.2
	}
	return c
}

// repeats is the number of measured runs averaged per data point: 20, or
// 5 under Quick (the paper uses 100 on EC2).
func (c Config) repeats() int {
	if c.Quick {
		return 5
	}
	return 20
}

// draws is the number of independent instances (constraint vectors and
// noise seeds) each improvement figure averages over, mirroring the
// paper's repeated measurements: 5, or 3 under Quick.
func (c Config) draws() int {
	if c.Quick {
		return 3
	}
	return 5
}

// draw is the configuration of draw d: the caller's, with the seed the
// draw's instance is built from.
func (c Config) draw(d int) Config {
	c.Seed += int64(d) * 1000
	return c
}

// RandomConstraints builds a constraint vector pinning ratio·n processes
// to uniformly random sites, never exceeding any site's capacity. Ratio 0
// returns an all-unconstrained vector; ratio 1 pins everything.
func RandomConstraints(n int, capacity mat.IntVec, ratio float64, rng *rand.Rand) (mat.IntVec, error) {
	if ratio < 0 || ratio > 1 {
		return nil, fmt.Errorf("experiments: constraint ratio %v outside [0,1]", ratio)
	}
	if capacity.Sum() < n {
		return nil, fmt.Errorf("experiments: capacity %d below %d processes", capacity.Sum(), n)
	}
	c := mat.NewIntVec(n, core.Unconstrained)
	k := int(ratio*float64(n) + 0.5)
	perm := rng.Perm(n)
	remaining := capacity.Clone()
	for _, i := range perm[:k] {
		// Draw a site weighted by remaining pinned capacity so the vector
		// stays feasible even at ratio 1.
		total := remaining.Sum()
		pick := rng.Intn(total)
		site := 0
		for s, r := range remaining {
			if pick < r {
				site = s
				break
			}
			pick -= r
		}
		c[i] = site
		remaining[site]--
	}
	return c, nil
}

// SimMode selects the netsim engine used to time a placement.
type SimMode int

const (
	// SimReplay uses the logical-clock trace replay — the default, and the
	// model matching the workloads' dependency structure.
	SimReplay SimMode = iota
	// SimFluid uses the exact max-min fluid engine on concurrent phases.
	SimFluid
	// SimFluidPS uses the analytic processor-sharing fluid engine.
	SimFluidPS
)

// Instance is one fully-built experiment scenario: a cloud, a workload,
// its profiled communication pattern, and the mapping problem with
// calibrated (not ground-truth) network matrices, as the paper's pipeline
// prescribes.
type Instance struct {
	Cloud   *netmodel.Cloud
	App     apps.App
	N       int
	Iters   int
	Problem *core.Problem
	// IterTrace is the single-iteration event stream (iterations are
	// identical, so one iteration is simulated and scaled).
	IterTrace []trace.Event
}

// BuildInstance profiles the app, calibrates the cloud, and assembles the
// mapping problem. nodesPerSite × sites must be ≥ n.
func BuildInstance(cloud *netmodel.Cloud, app apps.App, n, iters int, constraintRatio float64, seed int64) (*Instance, error) {
	if n > cloud.TotalNodes() {
		return nil, fmt.Errorf("experiments: %d processes on a %d-node cloud", n, cloud.TotalNodes())
	}
	rec, err := apps.Trace(app, n, 1)
	if err != nil {
		return nil, err
	}
	graph := rec.Graph()

	cal, err := calib.Calibrate(cloud, calib.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := stats.NewRand(seed + 1)
	constraints, err := RandomConstraints(n, cloud.Capacity(), constraintRatio, rng)
	if err != nil {
		return nil, err
	}
	// The pattern the optimizer sees is the full run (iters iterations);
	// scale the single-iteration profile rather than re-tracing.
	prob := &core.Problem{
		Comm:       graph,
		LT:         cal.LT,
		BT:         cal.BT,
		PC:         cloud.Coordinates(),
		Capacity:   cloud.Capacity(),
		Constraint: constraints,
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return &Instance{
		Cloud:     cloud,
		App:       app,
		N:         n,
		Iters:     iters,
		Problem:   prob,
		IterTrace: rec.Events(),
	}, nil
}

// PaperCloudForScale builds the evaluation cloud: four regions with
// n/4 nodes each (the paper's even distribution), m4.xlarge instances.
func PaperCloudForScale(n int, seed int64) (*netmodel.Cloud, error) {
	if n%4 != 0 {
		return nil, fmt.Errorf("experiments: process count %d not divisible by 4 regions", n)
	}
	return netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions, n/4, netmodel.Options{Seed: seed})
}

// SimResult is the simulated execution of the full run under one placement.
type SimResult struct {
	ComputeSeconds float64
	CommSeconds    float64
}

// Total returns the end-to-end run time.
func (s SimResult) Total() float64 { return s.ComputeSeconds + s.CommSeconds }

// Simulate runs the instance's per-iteration communication under the
// placement with the chosen engine and scales to the full iteration count.
// The simulator runs in dedicated-WAN mode, matching the paper's α–β
// network formulation (no shared-pipe contention); the contention
// experiment exercises the shared model explicitly.
func (inst *Instance) Simulate(pl core.Placement, mode SimMode) (SimResult, error) {
	return inst.SimulateWith(pl, mode, netsim.Options{DedicatedWAN: true})
}

// SimulateWith is Simulate with explicit simulator options.
func (inst *Instance) SimulateWith(pl core.Placement, mode SimMode, opt netsim.Options) (SimResult, error) {
	sim, err := netsim.NewWithOptions(inst.Cloud, pl, opt)
	if err != nil {
		return SimResult{}, err
	}
	var comm units.Seconds
	switch mode {
	case SimReplay:
		comm, err = sim.ReplayTrace(inst.IterTrace)
		if err != nil {
			return SimResult{}, err
		}
	case SimFluid, SimFluidPS:
		// The fluid engines take the iteration's messages grouped into
		// sequential sub-phases.
		for _, phase := range netsim.PhasesFromEvents(inst.IterTrace) {
			var t units.Seconds
			if mode == SimFluidPS {
				t, err = sim.SimulatePhasePS(phase)
			} else {
				t, err = sim.SimulatePhase(phase)
			}
			if err != nil {
				return SimResult{}, err
			}
			comm += t
		}
	default:
		return SimResult{}, fmt.Errorf("experiments: unknown sim mode %d", mode)
	}
	iters := float64(inst.Iters)
	return SimResult{
		ComputeSeconds: inst.App.ComputeTime(inst.N) * iters,
		CommSeconds:    comm.Scale(iters).Float(),
	}, nil
}

// BaselineSim averages the simulated result over `repeats` random feasible
// placements — the paper's Baseline measurement.
func (inst *Instance) BaselineSim(repeats int, seed int64, mode SimMode) (SimResult, error) {
	if repeats < 1 {
		return SimResult{}, fmt.Errorf("experiments: repeats %d, want ≥ 1", repeats)
	}
	rng := stats.NewRand(seed)
	var acc SimResult
	for i := 0; i < repeats; i++ {
		pl, err := core.RandomPlacement(inst.Problem, rng)
		if err != nil {
			return SimResult{}, err
		}
		r, err := inst.Simulate(pl, mode)
		if err != nil {
			return SimResult{}, err
		}
		acc.ComputeSeconds += r.ComputeSeconds
		acc.CommSeconds += r.CommSeconds
	}
	acc.ComputeSeconds /= float64(repeats)
	acc.CommSeconds /= float64(repeats)
	return acc, nil
}

// CommCost returns the α–β predicted communication time of a placement
// (Formula 3 summed over the pattern) — the metric the paper's simulation
// study evaluates (its Monte Carlo analysis computes communication time
// from exactly this model).
func (inst *Instance) CommCost(pl core.Placement) float64 {
	return inst.Problem.Cost(pl).Float() * float64(inst.Iters)
}

// BaselineCost averages CommCost over `repeats` random feasible
// placements.
func (inst *Instance) BaselineCost(repeats int, seed int64) (float64, error) {
	if repeats < 1 {
		return 0, fmt.Errorf("experiments: repeats %d, want ≥ 1", repeats)
	}
	rng := stats.NewRand(seed)
	var acc float64
	for i := 0; i < repeats; i++ {
		pl, err := core.RandomPlacement(inst.Problem, rng)
		if err != nil {
			return 0, err
		}
		acc += inst.CommCost(pl)
	}
	return acc / float64(repeats), nil
}

// MapAndTime runs a mapper on the instance's problem, returning the
// placement and the wall-clock optimization overhead.
func (inst *Instance) MapAndTime(m core.Mapper) (core.Placement, time.Duration, error) {
	start := time.Now() //geolint:detsource wall-clock overhead measurement; timing is reported, placements never depend on it
	pl, err := m.Map(inst.Problem)
	return pl, time.Since(start), err //geolint:detsource wall-clock overhead measurement; timing is reported, placements never depend on it
}

// ImprovementPct is the paper's metric: how much faster v is than the
// baseline, in percent of the baseline.
func ImprovementPct(baseline, v float64) float64 {
	if baseline == 0 { //geolint:ignore floatcmp exact-zero guard against division by zero
		return 0
	}
	return (baseline - v) / baseline * 100
}

// StandardMappers returns the paper's three compared algorithms. workers
// sets the geo mapper's order-search parallelism (see Config.Workers).
func StandardMappers(seed int64, workers int) []core.Mapper {
	return []core.Mapper{
		&baselines.Greedy{},
		&baselines.MPIPP{Seed: seed},
		&core.GeoMapper{Kappa: 4, Seed: seed, Workers: workers},
	}
}
