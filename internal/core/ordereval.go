package core

import (
	"math"

	"geoprocmap/internal/multilevel"
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

// orderEval is GeoMapper's evaluator of SearchOrders' key classes: it
// fills each order with its own multilevel.Fill, repairs site-set
// leftovers and prices the placement with Problem.Cost.
//
// A class of one rank is filled and costed. In a larger class, on a
// symmetric level, every order's placement is the first order's under a
// relabelling of the visited sites. The evaluator fills the first order
// with Fill.Run and tabulates its directed site-pair traffic, Σ msgs and Σ
// volume per pair of occupied sites, in one O(E) pass, then prices every
// order of the class from the table in O(M²). It replays (with
// Fill.Replay) and runs Problem.Cost on the cheapest-priced order, the
// first on a tie, and then walks the other orders in rank order. It skips
// an order, with neither replay nor Problem.Cost, when its price proves it
// dearer than the cheapest cost found so far, or when it places every
// process where that cost's order does. Such a repeat has that order's
// price bit for bit, so it comes later in the walk (the cheapest-priced
// order is the first of its price) and loses the tie on rank. Orders whose
// price cannot separate them from the bound, near-ties included, are
// replayed and costed, and the cheapest, the lowest rank on a tie, is
// returned: every skipped order costs more, or repeats the placement of a
// lower rank.
type orderEval struct {
	p     *Problem
	fill  *multilevel.Fill
	prune bool // E+2M²+3 ≤ priceMaxTerms, so the price bound holds

	bestCur []int // the visited sites of the cheapest order costed in the class

	occ       []int     // the first order's occupied visit indices
	msgs, vol []float64 // the table, row-major over occ × occ
	pos       []int     // scratch: site → index into occ, or -1, len M

	exact, pruned int // Problem.Cost passes run and orders skipped, for tests
}

// newOrderEval returns an evaluator of the orders of fill's groups, which
// fills them with fill, a Fill over the table of p's level-0 graph.
func (p *Problem) newOrderEval(fill *multilevel.Fill) *orderEval {
	m := p.M()
	ints := make([]int, 3*m) // one block backs bestCur, occ and pos
	return &orderEval{
		p:       p,
		fill:    fill,
		prune:   p.Comm.EdgeCount() <= priceMaxTerms-2*m*m-3,
		bestCur: ints[:0:m],
		occ:     ints[m : m : 2*m],
		pos:     ints[2*m:],
	}
}

// eval is the multilevel.Eval of the evaluator.
func (e *orderEval) eval(ranks []int) (int, []int, units.Cost, bool) {
	ordered := e.fill.Order(ranks[0])
	pl := Placement(e.fill.Run(ordered))
	if len(ranks) == 1 {
		// Multi-site restrictions can strand processes the greedy packing
		// could not fit; relocate via augmenting paths.
		if e.p.HasSiteSets() && RepairLeftovers(e.p, pl) != nil {
			return 0, nil, 0, false
		}
		return ranks[0], pl, e.cost(pl), true
	}
	e.tabulate(e.fill.Visits(ordered), pl)
	prices, top := make([]units.Cost, len(ranks)), 0
	for i, r := range ranks {
		if prices[i] = e.priced(r); prices[i] < prices[top] {
			top = i
		}
	}
	// try replays and costs the i-th order and keeps it if it wins; last
	// is the order pl holds.
	best, bestCost, last := -1, units.Cost(0), -1
	try := func(i int) {
		ordered := e.fill.Order(ranks[i])
		pl, last = e.fill.Replay(ordered), i
		if c := e.cost(pl); best < 0 || c < bestCost || i < best && c <= bestCost {
			best, bestCost = i, c
			e.bestCur = append(e.bestCur[:0], e.fill.Visits(ordered)...)
		}
	}
	try(top)
	for i, r := range ranks {
		switch {
		case i == top:
		case e.dearer(prices[i], bestCost), e.sameAsBest(r):
			e.pruned++
		default:
			try(i)
		}
	}
	if last != best {
		pl = e.fill.Replay(e.fill.Order(ranks[best]))
	}
	return ranks[best], pl, bestCost, true
}

// cost runs Problem.Cost on pl.
func (e *orderEval) cost(pl Placement) units.Cost {
	e.exact++
	return e.p.Cost(pl)
}

// priced is the table price of the order of rank, an order of the class
// the table was built for.
//
//geolint:allocfree
func (e *orderEval) priced(rank int) units.Cost {
	return e.price(e.fill.Visits(e.fill.Order(rank)))
}

// dearer reports whether a table price proves its order's exact cost
// above bound: the price exceeds bound by more than both sums' rounding.
// A price that overflowed to +Inf proves nothing.
//
//geolint:allocfree
func (e *orderEval) dearer(price, bound units.Cost) bool {
	return e.prune && price > bound.Scale(1+priceRel)+priceAbs && !math.IsInf(price.Float(), 1)
}

// sameAsBest reports whether the order of rank visits the best's sites at
// every occupied visit index, so that its replay repeats the best's
// placement.
//
//geolint:allocfree
func (e *orderEval) sameAsBest(rank int) bool {
	cur := e.fill.Visits(e.fill.Order(rank))
	for _, i := range e.occ {
		if cur[i] != e.bestCur[i] {
			return false
		}
	}
	return true
}

// tabulate builds the site-pair traffic table of pl, the placement of the
// order that visited the sites rec: one row and one column per occupied
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

// price is the cost of the tabulated placement relabelled onto the
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
