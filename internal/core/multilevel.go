package core

import (
	"errors"

	"geoprocmap/internal/mat"
	"geoprocmap/internal/multilevel"
)

// MultilevelGeoMapper solves the mapping problem with the multilevel
// scheme of internal/multilevel: coarsen the communication graph by
// heavy-edge matching, run the paper's group-order heuristic on the
// coarsest graph (generalized to weighted super-vertices), then uncoarsen
// level by level under a parallel deterministic move/swap local search.
//
// Against GeoMapper the asymptotics change, not just the constants: the κ!
// order search only ever sees a few×M super-vertices, so the end-to-end
// cost is dominated by the O(E·M) refinement sweeps — κ = 32 sites and
// N = 100k processes solve in seconds where the flat heuristic's
// O(κ!·(M·N + E·log E)), κ! full greedy fills of all N processes, is out
// of reach (the `geobench -exp multilevel` Pareto experiment
// quantifies both axes).
type MultilevelGeoMapper struct {
	// Kappa is the K-means site-group count for the coarsest-level order
	// search; zero selects the GeoMapper default of min(M, 4). Values
	// above MaxKappa are rejected, exactly as for GeoMapper.
	Kappa int
	// Seed drives the K-means grouping.
	Seed int64
	// Workers is multilevel.Options.Workers: the parallelism of the
	// coarsest-level order search and of the refinement's proposal phase.
	// Zero selects GOMAXPROCS; any value yields byte-identical placements.
	Workers int
}

// Name implements Mapper.
func (m *MultilevelGeoMapper) Name() string { return "Multilevel" }

// Map implements Mapper. The result is byte-identical for identical
// problems at any worker count — the same contract GeoMapper honors, which
// TestMultilevelSeedDeterminism and the multilevel-smoke digest gate
// enforce.
//
//geolint:deterministic
func (m *MultilevelGeoMapper) Map(p *Problem) (Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	kappa, err := groupCount(m.Kappa)
	if err != nil {
		return nil, err
	}
	groups, err := GroupSites(p.PC, kappa, m.Seed)
	if err != nil {
		return nil, err
	}
	inst := p.instance(groups)
	opt := multilevel.Options{Workers: m.Workers}
	pl, _, err := multilevel.Solve(inst, opt)
	if errors.Is(err, multilevel.ErrInfeasible) {
		// Degenerate packings (tight capacities under multi-site
		// restrictions) can defeat the greedy fill at every level; the
		// augmenting-path repair is complete on validated problems, so
		// seed from it and let the refiner recover the quality.
		pl, err = m.repairFallback(p, inst, opt)
	}
	if err != nil {
		return nil, err
	}
	out := Placement(pl)
	if err := p.CheckPlacement(out); err != nil {
		return nil, err
	}
	return out, nil
}

// repairFallback builds a feasible placement with pins plus the
// augmenting-path leftover repair, then polishes it with the flat
// multilevel refiner.
func (m *MultilevelGeoMapper) repairFallback(p *Problem, inst *multilevel.Instance, opt multilevel.Options) ([]int, error) {
	pl := mat.NewIntVec(p.N(), Unconstrained)
	for i, c := range p.Constraint {
		if c != Unconstrained {
			pl[i] = c
		}
	}
	if err := RepairLeftovers(p, pl); err != nil {
		return nil, err
	}
	if err := multilevel.Refine(inst, pl, opt); err != nil {
		return nil, err
	}
	return pl, nil
}

// instance phrases p as a multilevel instance over its level-0 graph, a
// no-copy view of p.Comm's frozen rows.
func (p *Problem) instance(groups [][]int) *multilevel.Instance {
	return &multilevel.Instance{
		G:        multilevel.FromComm(p.Comm),
		LT:       p.LT,
		BT:       p.BT,
		Capacity: p.Capacity,
		Pin:      p.Constraint,
		Allowed:  p.Allowed,
		Groups:   groups,
	}
}
