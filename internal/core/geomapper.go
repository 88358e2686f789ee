package core

import (
	"fmt"

	"geoprocmap/internal/multilevel"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// GeoMapper implements the paper's Geo-distributed process-mapping
// algorithm (Algorithm 1):
//
//  1. cluster the M sites into κ groups with K-means over their physical
//     coordinates (grouping optimization, Section 4.2);
//  2. for every order θ of the κ groups, greedily build a placement: pin
//     constrained processes first, then walk groups in order and fill each
//     group's sites — largest remaining capacity first — starting from the
//     globally heaviest-communicating unselected process and repeatedly
//     adding the unselected process with the heaviest communication to the
//     processes already in the site;
//  3. keep the order whose placement has the minimum cost (Formula 4).
//
// Steps 2 and 3 are multilevel.SearchOrders over every rank of the κ!
// orders, evaluating each with multilevel.Fill at unit weight over a
// no-copy level-0 view of the problem's communication graph; the site-set
// repair and the objective are this type's own. The complexity is
// O(κ!·(M·N + E·log E)) for E communicating pairs: the fill keeps its
// next-process candidates in a heap instead of rescanning all N processes
// per placement, the O(κ!·N²) of a literal reading of the paper. With no
// pinned process and no site set, orders that visit the same capacity
// sequence share one fill (see multilevel.Fill), so on equal-capacity
// sites the search costs one fill per worker plus κ! O(N) replays and κ!
// cost evaluations. The grouping step keeps κ small (the paper recommends
// κ ≤ 5) so the order search stays tractable for large M.
type GeoMapper struct {
	// Kappa is the number of K-means site groups κ. Zero selects the
	// default of min(M, 4). Values above MaxKappa are rejected to keep the
	// κ! order enumeration bounded.
	Kappa int
	// Seed drives the K-means initialization.
	Seed int64
	// DisableGrouping skips the K-means step and treats every site as its
	// own group (used by the ablation study). The order search then
	// enumerates M! site orders, so it is only usable for small M.
	DisableGrouping bool
	// SingleOrder, when true, evaluates only the identity group order,
	// rank 0, instead of searching all κ! orders (used by the ablation
	// study).
	SingleOrder bool
	// RefinePasses, when positive, polishes the best placement with up
	// to that many Problem.Exchange sweeps: first-improvement pairwise
	// exchanges priced by multilevel's swap delta on the true cost
	// function. This is an extension beyond the paper's Algorithm 1
	// (which returns the packing result directly); each sweep is O(N²·deg)
	// so it trades overhead for solution quality, quantified by
	// BenchmarkAblationRefinement. Zero skips the sweep entirely.
	RefinePasses int
	// Workers is the number of goroutines evaluating group orders, passed
	// to multilevel.SearchOrders: each worker owns its own multilevel.Fill
	// and the reduction — minimum cost, ties broken by lowest
	// lexicographic permutation rank — is deterministic, so the result is
	// byte-identical for every worker count. Zero selects GOMAXPROCS; 1
	// runs the search serially on the calling goroutine.
	Workers int
}

// MaxKappa bounds the group count so κ! stays tractable.
const MaxKappa = 8

// groupCount resolves a mapper's Kappa: zero selects 4, and values
// outside [1, MaxKappa] are rejected to keep the κ! order search bounded.
func groupCount(kappa int) (int, error) {
	switch {
	case kappa == 0:
		return 4, nil
	case kappa < 1:
		return 0, fmt.Errorf("core: kappa = %d, want >= 1", kappa)
	case kappa > MaxKappa:
		return 0, fmt.Errorf("core: kappa = %d exceeds MaxKappa = %d; the κ! order search would be intractable", kappa, MaxKappa)
	}
	return kappa, nil
}

// Name implements Mapper.
func (g *GeoMapper) Name() string { return "Geo-distributed" }

// Map implements Mapper. It returns the best placement found across all
// examined group orders. The result is byte-identical for identical
// problems at any worker count — the contract TestSeedDeterminism and the
// serve-smoke digest gate enforce.
//
//geolint:deterministic
func (g *GeoMapper) Map(p *Problem) (Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	kappa, err := groupCount(g.Kappa)
	if err != nil {
		return nil, err
	}

	var groups [][]int
	if g.DisableGrouping {
		if p.M() > MaxKappa {
			return nil, fmt.Errorf("core: grouping disabled with M = %d sites; order search over M! orders is intractable (max %d)", p.M(), MaxKappa)
		}
		for j := 0; j < p.M(); j++ {
			groups = append(groups, []int{j})
		}
	} else if groups, err = GroupSites(p.PC, kappa, g.Seed); err != nil {
		return nil, err
	}

	limit := stats.FactorialInt(len(groups))
	if g.SingleOrder {
		limit = 1 // rank 0 is the identity order
	}
	best, _, ok := multilevel.SearchOrders(groups, limit, g.Workers, func() multilevel.Eval {
		fill := multilevel.NewFill(p.instance(nil))
		return func(orderedGroups [][]int) ([]int, units.Cost, bool) {
			pl := Placement(fill.Run(orderedGroups))
			// Multi-site restrictions can strand processes the greedy
			// packing could not fit; relocate via augmenting paths.
			if p.HasSiteSets() && RepairLeftovers(p, pl) != nil {
				return nil, 0, false
			}
			return pl, p.Cost(pl), true
		}
	})
	if !ok {
		return nil, fmt.Errorf("core: no placement produced")
	}
	if g.RefinePasses > 0 {
		p.Exchange(best, g.RefinePasses)
	}
	return best, nil
}

// Exchange polishes pl in place with up to passes sweeps of
// first-improvement pairwise exchanges, stopping early when a sweep
// applies nothing, and returns the final cost. The level-0 instance is
// built once per call, and the incremental cost each sweep carries is
// re-synced against p.Cost before the next sweep: FP drift compounds
// across sweeps, and the next sweep's RefineTol and anything downstream
// must see the true objective.
func (p *Problem) Exchange(pl Placement, passes int) units.Cost {
	in := p.instance(nil)
	cost := p.Cost(pl)
	for pass := 0; pass < passes; pass++ {
		if !refinePass(p, in, pl, &cost) {
			break
		}
		cost = p.Cost(pl)
	}
	return cost
}

// refinePass applies one sweep of first-improvement pairwise exchanges of
// unpinned, mutually-admissible processes, pricing each through in, the
// level-0 instance of p, and updating pl and cost in place. The
// incremental cost drifts from the true objective as swaps accumulate;
// Exchange re-syncs it between sweeps.
//
//geolint:allocfree
func refinePass(p *Problem, in *multilevel.Instance, pl Placement, cost *units.Cost) bool {
	n := p.N()
	improved := false
	for a := 0; a < n; a++ {
		if p.Constraint[a] != Unconstrained {
			continue
		}
		for b := a + 1; b < n; b++ {
			if p.Constraint[b] != Unconstrained || pl[a] == pl[b] {
				continue
			}
			if !p.AllowedOn(a, pl[b]) || !p.AllowedOn(b, pl[a]) {
				continue
			}
			delta := in.SwapDelta(pl, a, b)
			if delta < -multilevel.RefineTol(*cost) {
				pl[a], pl[b] = pl[b], pl[a]
				*cost += delta
				improved = true
			}
		}
	}
	return improved
}
