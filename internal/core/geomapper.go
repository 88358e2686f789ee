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
// per placement, the O(κ!·N²) of a literal reading of the paper. The
// grouping step keeps κ small (the paper recommends κ ≤ 5) so the order
// search stays tractable for large M.
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
	// RefinePasses, when positive, polishes the best placement with that
	// many sweeps of first-improvement pairwise exchanges on the true
	// cost function. This is an extension beyond the paper's Algorithm 1
	// (which returns the packing result directly); each sweep is O(N²·deg)
	// so it trades overhead for solution quality, quantified by
	// BenchmarkAblationRefinement.
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
	best, bestCost, ok := multilevel.SearchOrders(groups, limit, g.Workers, func() multilevel.Eval {
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
	for pass := 0; pass < g.RefinePasses; pass++ {
		if !refinePass(p, best, &bestCost) {
			break
		}
		// refinePass maintains the cost incrementally; FP drift compounds
		// across sweeps, so re-sync against the true objective before the
		// next sweep's improvement comparisons (and before anything
		// downstream trusts bestCost).
		bestCost = p.Cost(best)
	}
	return best, nil
}

// refinePass applies one sweep of first-improvement pairwise exchanges of
// unpinned, mutually-admissible processes, updating pl and cost in place.
// The incremental cost drifts from the true objective as swaps accumulate;
// callers running multiple passes must re-sync it via Problem.Cost.
//
//geolint:allocfree
func refinePass(p *Problem, pl Placement, cost *units.Cost) bool {
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
			delta := p.SwapDelta(pl, a, b)
			if delta < -multilevel.RefineTol(*cost) {
				pl[a], pl[b] = pl[b], pl[a]
				*cost += delta
				improved = true
			}
		}
	}
	return improved
}

// SwapDelta is the cost change of swapping the sites of processes a and
// b, computed locally over their incident edges in O(deg(a)+deg(b)). It
// runs O(N²) times per refinement sweep; the site/edge closures below are
// called directly and never escape, so they stay on the stack.
//
//geolint:allocfree
func (p *Problem) SwapDelta(pl Placement, a, b int) units.Cost {
	sa, sb := pl[a], pl[b]
	site := func(j int) int {
		switch j {
		case a:
			return sb
		case b:
			return sa
		default:
			return pl[j]
		}
	}
	var delta units.Cost
	edge := func(i, j int, vol, msgs float64) {
		oldSi, oldSj := pl[i], pl[j]
		newSi, newSj := site(i), site(j)
		delta -= (p.Latency(oldSi, oldSj).Scale(msgs) + units.Bytes(vol).Over(p.Bandwidth(oldSi, oldSj))).AsCost()
		delta += (p.Latency(newSi, newSj).Scale(msgs) + units.Bytes(vol).Over(p.Bandwidth(newSi, newSj))).AsCost()
	}
	for _, e := range p.Comm.Outgoing(a) {
		edge(a, e.Peer, e.Volume, e.Msgs)
	}
	for _, e := range p.Comm.Incoming(a) {
		edge(e.Peer, a, e.Volume, e.Msgs)
	}
	for _, e := range p.Comm.Outgoing(b) {
		if e.Peer != a {
			edge(b, e.Peer, e.Volume, e.Msgs)
		}
	}
	for _, e := range p.Comm.Incoming(b) {
		if e.Peer != a {
			edge(e.Peer, b, e.Volume, e.Msgs)
		}
	}
	return delta
}
