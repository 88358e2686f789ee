package service

import (
	"fmt"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/baselines"
	"geoprocmap/internal/comm"
	"geoprocmap/internal/core"
	"geoprocmap/internal/mat"
)

// Edge is one directed traffic entry of an explicit communication
// pattern (a CG/AG pair), mirroring the problem JSON codec in
// internal/core.
type Edge struct {
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Volume float64 `json:"volume"`
	Msgs   float64 `json:"msgs"`
}

// MapRequest is the body of POST /v1/map. The communication pattern
// comes either from a named workload preset (profiled server-side and
// memoized) or from an explicit edge list — exactly one of the two.
type MapRequest struct {
	// Workload names a preset application (LU, BT, SP, K-means, DNN,
	// CG, MG); Procs is its process count and Iters the profiled
	// iteration count (default 1, at most 100).
	Workload string `json:"workload,omitempty"`
	Procs    int    `json:"procs,omitempty"`
	Iters    int    `json:"iters,omitempty"`
	// Edges is the explicit alternative to Workload. Procs must be set
	// to the process count the edges index into.
	Edges []Edge `json:"edges,omitempty"`
	// Constraint optionally pins processes to sites (-1 = free); length
	// Procs. Empty means fully unconstrained.
	Constraint []int `json:"constraint,omitempty"`
	// Allowed optionally restricts each process to a set of admissible
	// sites (the multi-site constraint extension).
	Allowed [][]int `json:"allowed,omitempty"`
	// Algorithm selects the mapper: geo (default), multilevel, greedy,
	// mpipp, random, montecarlo.
	Algorithm string `json:"algorithm,omitempty"`
	// Kappa is the geo mapper's group count (0 = default).
	Kappa int `json:"kappa,omitempty"`
	// Seed drives the solver's randomness; identical requests against
	// the same snapshot version produce bit-identical placements.
	Seed int64 `json:"seed,omitempty"`
	// DeadlineMillis bounds the request end to end — queueing included.
	// 0 uses the server default.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// MapResult is the cacheable part of a mapping answer: everything
// derived purely from (request fingerprint, snapshot version).
type MapResult struct {
	// SnapshotVersion is the network snapshot the placement was solved
	// against.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// Algorithm echoes the mapper that produced the placement.
	Algorithm string `json:"algorithm"`
	// Cost is the α–β objective of the placement; LatencyCost and
	// BandwidthCost are its two terms.
	Cost          float64 `json:"cost"`
	LatencyCost   float64 `json:"latency_cost"`
	BandwidthCost float64 `json:"bandwidth_cost"`
	// Placement maps each process to its site.
	Placement []int `json:"placement"`
	// Digest is the canonical SHA-256 of the placement vector, so
	// clients can compare results across runs without shipping the
	// vector around.
	Digest string `json:"digest"`
	// SolveMillis is the wall time of the original solve (a cache hit
	// echoes the miss that populated it).
	SolveMillis float64 `json:"solve_ms"`
}

// MapResponse is the body of a successful POST /v1/map.
type MapResponse struct {
	MapResult
	// Cached reports that the result came from the LRU without any
	// solve; Deduped that this request shared a concurrent identical
	// solve rather than running its own; Peer that the receiving daemon
	// filled its cache from the shard owner instead of solving.
	Cached  bool `json:"cached"`
	Deduped bool `json:"deduped,omitempty"`
	Peer    bool `json:"peer,omitempty"`
}

// errorResponse is the JSON error body every non-2xx answer carries.
type errorResponse struct {
	Error string `json:"error"`
}

// maxIters bounds a request's profiled iteration count. Profiling runs
// on a pool worker and its time is linear in iters: K-means at 4096
// processes takes ~17 ms per iteration on a 2-core Xeon, so an unbounded
// value could hold a worker for hours.
const maxIters = 100

// validate checks the request shape against the server's admission
// bounds and the snapshot's site count, without profiling anything.
func (r *MapRequest) validate(maxProcs int, m int) error {
	switch {
	case r.Workload == "" && len(r.Edges) == 0:
		return fmt.Errorf("request needs a workload preset or an explicit edge list")
	case r.Workload != "" && len(r.Edges) > 0:
		return fmt.Errorf("workload %q and explicit edges are mutually exclusive", r.Workload)
	case r.Procs <= 0:
		return fmt.Errorf("procs = %d, want > 0", r.Procs)
	case r.Procs > maxProcs:
		return fmt.Errorf("procs = %d exceeds the server bound %d", r.Procs, maxProcs)
	case r.Iters < 0:
		return fmt.Errorf("iters = %d, want >= 0", r.Iters)
	case r.Iters > maxIters:
		return fmt.Errorf("iters = %d exceeds the bound %d", r.Iters, maxIters)
	case r.DeadlineMillis < 0:
		return fmt.Errorf("deadline_ms = %d, want >= 0", r.DeadlineMillis)
	}
	if len(r.Constraint) != 0 && len(r.Constraint) != r.Procs {
		return fmt.Errorf("constraint vector has length %d, want %d", len(r.Constraint), r.Procs)
	}
	for i, c := range r.Constraint {
		if c != core.Unconstrained && (c < 0 || c >= m) {
			return fmt.Errorf("constraint[%d] = %d out of range [0,%d)", i, c, m)
		}
	}
	if len(r.Allowed) != 0 && len(r.Allowed) != r.Procs {
		return fmt.Errorf("allowed has %d entries, want %d", len(r.Allowed), r.Procs)
	}
	for i, set := range r.Allowed {
		for _, s := range set {
			if s < 0 || s >= m {
				return fmt.Errorf("allowed[%d] contains site %d out of range [0,%d)", i, s, m)
			}
		}
	}
	for i, e := range r.Edges {
		if e.Src < 0 || e.Src >= r.Procs || e.Dst < 0 || e.Dst >= r.Procs {
			return fmt.Errorf("edge %d endpoint out of range [0,%d)", i, r.Procs)
		}
		if e.Volume < 0 || e.Msgs < 0 {
			return fmt.Errorf("edge %d has negative traffic", i)
		}
	}
	if _, err := r.Mapper(1); err != nil { // workers=1: only the algorithm name is validated here
		return err
	}
	if r.Workload != "" {
		if _, err := apps.ByName(r.Workload); err != nil {
			return err
		}
	}
	return nil
}

// iters returns the effective profiled iteration count.
func (r *MapRequest) iters() int {
	if r.Iters == 0 {
		return 1
	}
	return r.Iters
}

// Mapper instantiates the requested algorithm. solverWorkers is the
// server's per-solve order-search parallelism (see Config.SolverWorkers);
// it does not enter the request fingerprint because the parallel search's
// deterministic reduction returns byte-identical placements at every
// worker count.
func (r *MapRequest) Mapper(solverWorkers int) (core.Mapper, error) {
	switch r.Algorithm {
	case "", "geo":
		return &core.GeoMapper{Kappa: r.Kappa, Seed: r.Seed, Workers: solverWorkers}, nil
	case "multilevel":
		return &core.MultilevelGeoMapper{Kappa: r.Kappa, Seed: r.Seed, Workers: solverWorkers}, nil
	case "greedy":
		return &baselines.Greedy{}, nil
	case "mpipp":
		return &baselines.MPIPP{Seed: r.Seed}, nil
	case "random":
		return &baselines.Random{Seed: r.Seed}, nil
	case "montecarlo":
		return &baselines.MonteCarlo{Seed: r.Seed, Samples: 10000}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", r.Algorithm)
	}
}

// GraphFunc supplies a workload's profiled communication graph. The
// server passes its memoizing profiler; a nil GraphFunc profiles the
// workload directly (fine for infrequent callers like the re-gauging
// loop, which rebuilds a handful of problems per publication).
type GraphFunc func(workload string, procs, iters int) (*comm.Graph, error)

// Problem assembles the core.Problem for the request against a snapshot,
// profiling the workload through graphFor (nil profiles directly).
func (r *MapRequest) Problem(snap *Snapshot, graphFor GraphFunc) (*core.Problem, error) {
	var g *comm.Graph
	if r.Workload != "" {
		if graphFor == nil {
			graphFor = profileGraph
		}
		var err error
		g, err = graphFor(r.Workload, r.Procs, r.iters())
		if err != nil {
			return nil, err
		}
	} else {
		g = comm.NewGraph(r.Procs)
		for _, e := range r.Edges {
			g.AddTraffic(e.Src, e.Dst, e.Volume, e.Msgs)
		}
	}
	constraint := r.Constraint
	if len(constraint) == 0 {
		constraint = make([]int, r.Procs)
		for i := range constraint {
			constraint[i] = core.Unconstrained
		}
	}
	p := &core.Problem{
		Comm:       g,
		LT:         snap.LT,
		BT:         snap.BT,
		PC:         snap.PC,
		Capacity:   snap.Capacity,
		Constraint: mat.IntVec(constraint),
		Allowed:    r.Allowed,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// profileGraph is the memoization-free GraphFunc.
func profileGraph(workload string, procs, iters int) (*comm.Graph, error) {
	app, err := apps.ByName(workload)
	if err != nil {
		return nil, err
	}
	return apps.Graph(app, procs, iters)
}
