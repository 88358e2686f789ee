package core

import (
	"math"

	"geoprocmap/internal/multilevel"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// The table price of a replayed order is exact in real arithmetic, but it
// rounds differently from Problem.Cost, so an order is skipped only when
// its price exceeds the bound by more than both rounding errors together.
// Every term of either sum is non-negative and not NaN: AddTraffic
// rejects negative or NaN traffic and Validate rejects negative or NaN
// links. Recursive summation of k such terms, each rounded once, has
// relative error at most γ_k = k·u/(1−k·u) with u = 2⁻⁵³. CostParts sums
// k ≤ E+3 and the table price k ≤ E+2M²+3 for E communicating pairs and
// M sites, so while E+2M²+3 ≤ priceMaxTerms both errors are below 2⁻²³
// and a price above bound·(1+priceRel) proves the exact cost above the
// bound: (1+2⁻²⁰)·(1−2⁻²³)² > 1. priceAbs covers gradual underflow,
// where a term's rounding error is absolute, at most 2⁻¹⁰⁷⁵ each, so at
// most 2⁻¹⁰⁴⁴ over 2³⁰ terms. A price of +Inf never prunes, and problems
// above priceMaxTerms are never pruned.
const (
	priceRel      = 0x1p-20
	priceAbs      = units.Cost(0x1p-1000)
	priceMaxTerms = 1 << 30
)

// orderEval is GeoMapper's evaluator of one SearchOrders worker's group
// orders, the ranks [lo, hi): it fills each order with its own
// multilevel.Fill, repairs site-set leftovers and prices the placement
// with Problem.Cost.
//
// On a level where the Fill replays, every replayed order's placement is
// the recorded fill's placement under a relabelling of the visited
// sites. After each recorded fill the evaluator tabulates that
// placement's directed site-pair traffic, Σ msgs and Σ volume per pair of
// occupied sites, in one O(E) pass, so an order that would replay is
// priced from the table in O(M²). After its first table the evaluator
// plans: it prices every order of its range that replays that fill, and
// replays and runs Problem.Cost on the cheapest-priced one, the ahead
// order, before its turn. From then on an order that would replay is
// skipped, with neither replay nor Problem.Cost, when its price proves
// it costs more than the ahead order or the cheapest placement this
// evaluator has returned, or when it places every process where that
// placement did. The ahead order is returned at its own rank with the
// cost already known. The worker walks its ranks in ascending order and
// keeps the first strict minimum, and every skipped order costs more than
// an order returned in the range, or no less than one returned before
// it, so a skipped order could not have displaced the result; orders
// whose price cannot separate them from the bound, near-ties included,
// still run Problem.Cost at their own rank. The plan runs once per
// evaluator, so it adds one O(M²) price per order of the range.
type orderEval struct {
	p      *Problem
	fill   *multilevel.Fill
	prune  bool // E+2M²+3 ≤ priceMaxTerms, so the price bound holds
	groups [][]int
	hi     int     // the end of the evaluator's rank range
	scan   [][]int // scratch: one order of groups, for the plan

	best    units.Cost // lowest cost returned with ok, +Inf before any
	bestCur []int      // the visited sites of best's order, when bestGen is current
	bestGen int        // the fill generation bestCur relabels, or -1

	ahead     int        // the ahead order's rank, or -1 when none is pending
	aheadCost units.Cost // its Problem.Cost

	gen       int       // the fill generation the table describes, 0 before any
	occ       []int     // the recorded fill's occupied visit indices
	msgs, vol []float64 // the table, row-major over occ × occ
	pos       []int     // scratch: site → index into occ, or -1, len M

	exact, pruned int // Problem.Cost passes run and orders skipped, for tests
}

// newOrderEval returns an evaluator of the orders of groups with ranks up
// to hi, with its own fill over the shared table of p's level-0 graph.
func (p *Problem) newOrderEval(table *multilevel.FillTable, groups [][]int, hi int) *orderEval {
	m := p.M()
	ints := make([]int, 3*m) // one block backs bestCur, occ and pos
	return &orderEval{
		p:       p,
		fill:    multilevel.NewFill(table),
		prune:   p.Comm.EdgeCount() <= priceMaxTerms-2*m*m-3,
		groups:  groups,
		hi:      hi,
		scan:    make([][]int, len(groups)),
		best:    units.Cost(math.Inf(1)),
		bestCur: ints[:0:m],
		bestGen: -1,
		ahead:   -1,
		occ:     ints[m : m : 2*m],
		pos:     ints[2*m:],
	}
}

// eval is the multilevel.Eval of the evaluator.
func (e *orderEval) eval(rank int, ordered [][]int) ([]int, units.Cost, bool) {
	if rank == e.ahead {
		e.ahead = -1
		if !(e.aheadCost < e.best) {
			e.pruned++ // an earlier rank returned a placement no dearer
			return nil, 0, false
		}
		pl, cur, replays := e.run(ordered)
		e.keep(e.aheadCost, cur, replays)
		return pl, e.aheadCost, true
	}
	if _, cur, replays := e.fill.Relabel(ordered); replays && e.cannotWin(cur) {
		e.pruned++
		return nil, 0, false
	}
	gen := e.gen
	pl, cur, replays := e.run(ordered)
	// Multi-site restrictions can strand processes the greedy packing
	// could not fit; relocate via augmenting paths.
	if e.p.HasSiteSets() && RepairLeftovers(e.p, pl) != nil {
		return nil, 0, false
	}
	if gen == 0 && e.gen != 0 && e.prune {
		// The run recorded the evaluator's first fill: plan.
		replayed := e.plan(rank)
		// The plan relabelled other orders over the Fill's scratch that
		// cur aliases.
		_, cur, replays = e.fill.Relabel(ordered)
		if replayed {
			// It also replayed the ahead order over pl: price this order
			// against it, and replay it again only if it could win.
			if e.cannotWin(cur) {
				e.pruned++
				return nil, 0, false
			}
			pl, cur, replays = e.run(ordered)
		}
	}
	cost := e.p.Cost(pl)
	e.exact++
	e.keep(cost, cur, replays)
	return pl, cost, true
}

// run fills or replays ordered and returns its placement, with the sites
// it visited when the level replays. When the run recorded a new fill,
// run tabulates that fill's placement first.
func (e *orderEval) run(ordered [][]int) (Placement, []int, bool) {
	pl := Placement(e.fill.Run(ordered))
	rec, cur, replays := e.fill.Relabel(ordered)
	if g := e.fill.Generation(); g != e.gen {
		e.tabulate(rec, pl)
		e.gen = g
	}
	return pl, cur, replays
}

// plan prices every order of the range from rank on that replays the
// fill just recorded and, when the cheapest-priced one, the first on a
// tie, comes after rank, replays it, runs Problem.Cost on it and makes
// it the ahead order. It reports whether it replayed.
func (e *orderEval) plan(rank int) bool {
	ahead, aheadPrice := -1, units.Cost(math.Inf(1))
	stats.PermutationRange(len(e.groups), rank, e.hi, func(r int, perm []int) bool {
		for i, gi := range perm {
			e.scan[i] = e.groups[gi]
		}
		if _, cur, ok := e.fill.Relabel(e.scan); ok {
			if price := e.price(cur); price < aheadPrice {
				ahead, aheadPrice = r, price
			}
		}
		return true
	})
	if ahead <= rank {
		return false // no price, or rank is the cheapest: it is costed at its turn
	}
	for i, gi := range stats.PermutationUnrank(len(e.groups), ahead) {
		e.scan[i] = e.groups[gi]
	}
	e.ahead, e.aheadCost = ahead, e.p.Cost(e.fill.Run(e.scan))
	e.exact++
	return true
}

// keep makes a returned cost the evaluator's best when it is lower,
// remembering the visited sites of its order when it replayed.
func (e *orderEval) keep(cost units.Cost, cur []int, replays bool) {
	if cost < e.best {
		e.best, e.bestGen = cost, -1
		if replays {
			e.bestCur, e.bestGen = append(e.bestCur[:0], cur...), e.gen
		}
	}
}

// cannotWin reports whether the replay of the recorded fill onto the
// visited sites cur is shown to cost no less than e.best, or more than
// the pending ahead order: it places every process where best's order
// did, or its table price exceeds the lower of the two costs.
func (e *orderEval) cannotWin(cur []int) bool {
	if e.bestGen == e.gen && e.sameAsBest(cur) {
		return true
	}
	if !e.prune {
		return false
	}
	bound := e.best
	if e.ahead >= 0 && e.aheadCost < bound {
		bound = e.aheadCost
	}
	// A price that overflowed to +Inf proves nothing. Before any known
	// cost the bound is +Inf, which no price exceeds.
	price := e.price(cur)
	return price > bound.Scale(1+priceRel)+priceAbs && !math.IsInf(price.Float(), 1)
}

// sameAsBest reports whether cur agrees with best's visited sites on every
// occupied visit index, so that the replay repeats best's placement.
func (e *orderEval) sameAsBest(cur []int) bool {
	for _, i := range e.occ {
		if cur[i] != e.bestCur[i] {
			return false
		}
	}
	return true
}

// tabulate builds the site-pair traffic table of pl, the placement of the
// fill that visited the sites rec: one row and one column per occupied
// visit index, in visit order.
func (e *orderEval) tabulate(rec []int, pl Placement) {
	for s := range e.pos {
		e.pos[s] = -1
	}
	for _, s := range pl {
		e.pos[s] = 0 // occupied; numbered below, as rec lists each site once
	}
	e.occ = e.occ[:0]
	for i, s := range rec {
		if e.pos[s] >= 0 {
			e.pos[s] = len(e.occ)
			e.occ = append(e.occ, i)
		}
	}
	k := len(e.occ)
	if cap(e.msgs) < k*k {
		table := make([]float64, 2*k*k)
		e.msgs, e.vol = table[:0:k*k], table[k*k:k*k]
	}
	e.msgs, e.vol = e.msgs[:k*k], e.vol[:k*k]
	clear(e.msgs)
	clear(e.vol)
	for i, s := range pl {
		row := e.pos[s] * k
		for _, c := range e.p.Comm.Outgoing(i) {
			cell := row + e.pos[pl[c.Peer]]
			e.msgs[cell] += c.Msgs
			e.vol[cell] += c.Volume
		}
	}
}

// price is the cost of the recorded placement relabelled onto the
// visited sites cur, summed from the site-pair table with CostParts' own
// unit operations.
//
//geolint:allocfree
func (e *orderEval) price(cur []int) units.Cost {
	k := len(e.occ)
	var latency, bandwidth units.Cost
	for a, i := range e.occ {
		s := cur[i]
		for b, j := range e.occ {
			t := cur[j]
			latency += e.p.Latency(s, t).Scale(e.msgs[a*k+b]).AsCost()
			bandwidth += units.Bytes(e.vol[a*k+b]).Over(e.p.Bandwidth(s, t)).AsCost()
		}
	}
	return latency + bandwidth
}
