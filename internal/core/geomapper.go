package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

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
// The greedy fill of step 2 is multilevel.Fill at unit weight, over a
// no-copy level-0 view of the problem's communication graph; the order
// search, the site-set repair and the objective are this type's own.
// The complexity is O(κ!·N²); the grouping step keeps κ small (the paper
// recommends κ ≤ 5) so the order search stays tractable for large M.
type GeoMapper struct {
	// Kappa is the number of K-means site groups κ. Zero selects the
	// default of min(M, 4). Values above MaxKappa are rejected to keep the
	// κ! order enumeration bounded.
	Kappa int
	// Seed drives the K-means initialization.
	Seed int64
	// MaxOrders, when positive, caps the number of group orders examined.
	// Zero examines all κ! orders, as in the paper.
	MaxOrders int
	// DisableGrouping skips the K-means step and treats every site as its
	// own group (used by the ablation study). The order search then
	// enumerates M! site orders, so it is only usable for small M.
	DisableGrouping bool
	// SingleOrder, when true, evaluates only the identity group order
	// instead of searching all κ! orders (used by the ablation study).
	SingleOrder bool
	// RefinePasses, when positive, polishes the best placement with that
	// many sweeps of first-improvement pairwise exchanges on the true
	// cost function. This is an extension beyond the paper's Algorithm 1
	// (which returns the packing result directly); each sweep is O(N²·deg)
	// so it trades overhead for solution quality, quantified by
	// BenchmarkAblationRefinement.
	RefinePasses int
	// Workers is the number of goroutines evaluating group orders. The κ!
	// orders are embarrassingly parallel (each worker owns its own
	// multilevel.Fill) and the reduction — minimum cost, ties broken by
	// lowest lexicographic permutation rank — is deterministic, so the
	// result is byte-identical for every worker count. Zero selects
	// GOMAXPROCS; 1 runs the search serially on the calling goroutine.
	Workers int
}

// MaxKappa bounds the group count so κ! stays tractable.
const MaxKappa = 8

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
	kappa := g.Kappa
	if kappa == 0 {
		kappa = 4
	}
	if kappa < 1 {
		return nil, fmt.Errorf("core: kappa = %d, want >= 1", kappa)
	}
	if kappa > MaxKappa {
		return nil, fmt.Errorf("core: kappa = %d exceeds MaxKappa = %d; the κ! order search would be intractable", kappa, MaxKappa)
	}

	var groups [][]int
	if g.DisableGrouping {
		if p.M() > MaxKappa {
			return nil, fmt.Errorf("core: grouping disabled with M = %d sites; order search over M! orders is intractable (max %d)", p.M(), MaxKappa)
		}
		for j := 0; j < p.M(); j++ {
			groups = append(groups, []int{j})
		}
	} else {
		var err error
		groups, err = GroupSites(p.PC, kappa, g.Seed)
		if err != nil {
			return nil, err
		}
	}

	best, bestCost, err := g.searchOrders(p, groups)
	if err != nil {
		return nil, err
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

// repairPlacement relocates stranded processes of a site-set placement; a
// package variable so the MaxOrders-starvation regression test can inject
// repair failures (on validated problems the augmenting-path repair itself
// cannot fail, but the budget accounting must not assume that).
var repairPlacement = RepairLeftovers

// searchOrders runs the κ! group-order search and returns the best
// feasible placement with its cost. The search space is the lexicographic
// rank order of group permutations; the winner is the minimum-cost
// placement with ties broken by lowest rank, so every worker count —
// including the serial path — selects the same order, byte for byte.
func (g *GeoMapper) searchOrders(p *Problem, groups [][]int) (Placement, units.Cost, error) {
	if g.SingleOrder {
		perm := make([]int, len(groups))
		for i := range perm {
			perm[i] = i
		}
		res := newOrderSearch(p, groups, g.MaxOrders).run(perm, 0)
		if res.best == nil {
			return nil, 0, fmt.Errorf("core: no placement produced")
		}
		return res.best, res.bestCost, nil
	}

	total := stats.FactorialInt(len(groups))
	workers := g.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) //geolint:detsource worker count only; the rank-range reduction makes the result identical at any count
	}
	if workers > total {
		workers = total
	}
	if workers == 1 {
		// Serial path: one range covering the whole rank space, evaluated
		// on the calling goroutine exactly as the pre-parallel code did.
		res := newOrderSearch(p, groups, g.MaxOrders).runRange(0, total)
		if res.best == nil {
			return nil, 0, fmt.Errorf("core: no placement produced")
		}
		return res.best, res.bestCost, nil
	}

	// Split [0, κ!) into contiguous rank ranges, one per worker. Each
	// worker owns a private multilevel.Fill (the fill buffers are per-fill,
	// so nothing is shared beyond the read-only problem and groups; the
	// comm graph freezes once, whichever worker reads it first).
	results := make([]rangeResult, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			lo := w * total / workers
			hi := (w + 1) * total / workers
			results[w] = newOrderSearch(p, groups, g.MaxOrders).runRange(lo, hi)
		}(w)
	}
	wg.Wait()

	if g.MaxOrders > 0 {
		return g.reduceCapped(p, groups, results)
	}
	// Deterministic reduction: minimum cost; on an exact cost tie the
	// lowest rank wins, matching the serial loop's keep-first behavior.
	bestIdx := -1
	for w := range results {
		r := &results[w]
		if r.best == nil {
			continue
		}
		if bestIdx < 0 || r.bestCost < results[bestIdx].bestCost ||
			(r.bestCost == results[bestIdx].bestCost && r.bestRank < results[bestIdx].bestRank) { //geolint:ignore floatcmp exact tie-break: equal costs must fall through to the rank comparison or the winner would depend on worker scheduling
			bestIdx = w
		}
	}
	if bestIdx < 0 {
		return nil, 0, fmt.Errorf("core: no placement produced")
	}
	return results[bestIdx].best, results[bestIdx].bestCost, nil
}

// reduceCapped merges per-range results under a MaxOrders budget. The
// budget counts feasible orders in ascending rank order, so the counted
// set is the global first-MaxOrders feasible ranks — each worker recorded
// (rank, cost) for at most MaxOrders feasible orders of its own range,
// which is guaranteed to cover that prefix. The winning order is then
// re-evaluated for its placement: a worker's retained best placement may
// belong to a rank beyond the global budget.
func (g *GeoMapper) reduceCapped(p *Problem, groups [][]int, results []rangeResult) (Placement, units.Cost, error) {
	counted := 0
	bestRank := -1
	bestCost := units.Cost(math.Inf(1))
	for w := range results {
		for _, fc := range results[w].feasible {
			if counted == g.MaxOrders {
				break
			}
			counted++
			if fc.cost < bestCost {
				bestCost = fc.cost
				bestRank = fc.rank
			}
		}
		if counted == g.MaxOrders {
			break
		}
	}
	if bestRank < 0 {
		return nil, 0, fmt.Errorf("core: no placement produced")
	}
	for w := range results {
		if results[w].best != nil && results[w].bestRank == bestRank {
			return results[w].best, results[w].bestCost, nil
		}
	}
	res := newOrderSearch(p, groups, 0).run(stats.PermutationUnrank(len(groups), bestRank), bestRank)
	if res.best == nil {
		// The winning rank was feasible when first evaluated; the search is
		// deterministic, so it cannot become infeasible on re-evaluation.
		return nil, 0, fmt.Errorf("core: order %d infeasible on re-evaluation", bestRank)
	}
	return res.best, res.bestCost, nil
}

// rankCost records one feasible order's objective for the capped reduction.
type rankCost struct {
	rank int
	cost units.Cost
}

// rangeResult summarizes one contiguous rank range: the best feasible
// placement found (nil when the range produced none) and, under a
// MaxOrders budget, the first feasible (rank, cost) pairs.
type rangeResult struct {
	best     Placement
	bestCost units.Cost
	bestRank int
	feasible []rankCost
}

// orderSearch evaluates group orders on one goroutine with a private
// fill: the multilevel package's weighted Algorithm 1 body at unit weight.
type orderSearch struct {
	p       *Problem
	groups  [][]int
	cap     int // MaxOrders budget of feasible orders; 0 = unbounded
	fill    *multilevel.Fill
	ordered [][]int
	res     rangeResult
}

func newOrderSearch(p *Problem, groups [][]int, maxOrders int) *orderSearch {
	return &orderSearch{
		p:       p,
		groups:  groups,
		cap:     maxOrders,
		fill:    multilevel.NewFill(p.instance(nil)),
		ordered: make([][]int, len(groups)),
		res:     rangeResult{bestCost: units.Cost(math.Inf(1)), bestRank: -1},
	}
}

// runRange evaluates every order with rank in [lo, hi), stopping early
// once the budget of feasible orders is exhausted.
func (s *orderSearch) runRange(lo, hi int) rangeResult {
	stats.PermutationRange(len(s.groups), lo, hi, s.tryOrder)
	return s.res
}

// run evaluates the single given order.
func (s *orderSearch) run(perm []int, rank int) rangeResult {
	s.tryOrder(rank, perm)
	return s.res
}

// tryOrder is the per-order body of Algorithm 1's outer loop: greedy fill,
// site-set repair, cost comparison. Orders whose repair fails are
// infeasible and do not consume the MaxOrders budget — a constrained
// problem with a small cap must not starve on infeasible orders while
// uncounted later orders would succeed.
func (s *orderSearch) tryOrder(rank int, perm []int) bool {
	for i, gi := range perm {
		s.ordered[i] = s.groups[gi]
	}
	pl := Placement(s.fill.Run(s.ordered))
	if s.p.HasSiteSets() {
		// Multi-site restrictions can strand processes the greedy
		// packing could not fit; relocate via augmenting paths.
		if err := repairPlacement(s.p, pl); err != nil {
			return true
		}
	}
	c := s.p.Cost(pl)
	if s.cap > 0 {
		s.res.feasible = append(s.res.feasible, rankCost{rank: rank, cost: c})
	}
	if c < s.res.bestCost {
		s.res.bestCost = c
		s.res.bestRank = rank
		s.res.best = append(s.res.best[:0], pl...)
	}
	return s.cap <= 0 || len(s.res.feasible) < s.cap
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
			if delta < -refineTol(*cost) {
				pl[a], pl[b] = pl[b], pl[a]
				*cost += delta
				improved = true
			}
		}
	}
	return improved
}

// refineTol is the minimum improvement a refinement exchange must deliver,
// relative to the current objective: an absolute threshold is vacuous
// against costs orders of magnitude above 1 (every FP-noise "improvement"
// passes, and the pass loop can churn without converging) and needlessly
// strict near zero. The floor of 1 keeps the threshold meaningful for
// near-zero objectives.
func refineTol(c units.Cost) units.Cost {
	m := math.Abs(c.Float())
	if m < 1 {
		m = 1
	}
	return units.Cost(m).Scale(1e-12)
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
