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
// pinned process and no site set, SearchOrders puts the orders that visit
// the same capacity sequence into one key class, which one worker
// evaluates from one fill (see multilevel.Fill): it prices every order of
// the class in O(M²) from the fill's site-pair traffic, and replays and
// prices exactly, in O(N + E), the cheapest-priced order and then only
// the orders whose price cannot prove them dearer (see orderEval). So on
// equal-capacity sites the search costs one fill, one O(M²) price per
// order and one exact pass plus one per near-tie at any worker count: 1
// of 24 for a served 512-process request. The fill's seed order and
// weighted neighbour rows are built once per Map, in a table every worker
// shares; the table and each worker's fill are scratch from multilevel's
// pools, handed back when the search returns, so a Map allocates little
// beyond its placement. The grouping step keeps κ small (the paper
// recommends κ ≤ 5) so the order search stays tractable for large M.
type GeoMapper struct {
	// Kappa is the number of K-means site groups κ. Zero selects the
	// default of min(M, 4). Values above MaxKappa are rejected to keep the
	// κ! order enumeration bounded.
	Kappa int
	// Seed drives the K-means initialization.
	Seed int64
	// RefinePasses, when positive, polishes the best placement with up
	// to that many Problem.Exchange sweeps: first-improvement pairwise
	// exchanges priced by multilevel's swap delta on the true cost
	// function. This is an extension beyond the paper's Algorithm 1
	// (which returns the packing result directly); each sweep is O(N²·deg)
	// so it trades overhead for solution quality, quantified by
	// BenchmarkAblationRefinement. Zero skips the sweep entirely.
	RefinePasses int
	// Workers is the number of goroutines evaluating group orders, passed
	// to multilevel.SearchOrders: workers take whole key classes, each
	// with its own multilevel.Fill over one shared multilevel.FillTable,
	// and the reduction — minimum cost, ties broken by lowest
	// lexicographic permutation rank — is deterministic, so the result is
	// byte-identical for every worker count. A search never runs more
	// workers than it has classes: one on equal-capacity sites with no pin
	// or site set. Zero selects GOMAXPROCS; 1 runs the search serially on
	// the calling goroutine.
	Workers int
}

// MaxKappa bounds the group count so κ! stays tractable.
const MaxKappa = 8

// GroupCount resolves a mapper's Kappa: zero selects 4, and values
// outside [1, MaxKappa] are rejected to keep the κ! order search bounded.
// It is the one statement of that bound: GeoMapper and
// MultilevelGeoMapper apply it in Map, and the mapping service before it
// profiles a request's workload.
func GroupCount(kappa int) (int, error) {
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
	kappa, err := GroupCount(g.Kappa)
	if err != nil {
		return nil, err
	}

	groups, err := GroupSites(p.PC, kappa, g.Seed)
	if err != nil {
		return nil, err
	}
	table := multilevel.NewFillTable(p.instance(groups))
	best, _, ok := multilevel.SearchOrders(table, stats.FactorialInt(len(groups)), g.Workers, func(f *multilevel.Fill) multilevel.Eval {
		return p.newOrderEval(f).eval
	})
	table.Release()
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
