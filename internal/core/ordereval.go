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

// orderEval is GeoMapper's evaluator of one SearchOrders worker's group
// orders: it fills each order with its own multilevel.Fill, repairs
// site-set leftovers and prices the placement with Problem.Cost.
//
// On a level where the Fill replays, every replayed order's placement is
// the recorded fill's placement under a relabelling of the visited
// sites. After each recorded fill the evaluator tabulates that
// placement's directed site-pair traffic, Σ msgs and Σ volume per pair of
// occupied sites, in one O(E) pass. A later order that would replay is
// then priced from the table in O(M²), and skipped, with neither replay
// nor Problem.Cost, when that price proves it costs more than the
// cheapest placement this evaluator has returned, or when it places
// every process where that placement did. The worker walks its ranks in
// ascending order and keeps the first strict minimum, so a skipped order
// could not have displaced its result.
type orderEval struct {
	p     *Problem
	fill  *multilevel.Fill
	prune bool // E+2M²+3 ≤ priceMaxTerms, so the price bound holds

	best    units.Cost // lowest cost returned with ok, +Inf before any
	bestCur []int      // the visited sites of best's order, when bestGen is current
	bestGen int        // the fill generation bestCur relabels, or -1

	gen       int       // the fill generation the table describes, 0 before any
	occ       []int     // the recorded fill's occupied visit indices
	msgs, vol []float64 // the table, row-major over occ × occ
	pos       []int     // scratch: site → index into occ, or -1, len M

	exact, pruned int // Problem.Cost passes run and orders skipped, for tests
}

// newOrderEval returns an evaluator over p's level-0 graph with its own
// fill.
func (p *Problem) newOrderEval() *orderEval {
	m := p.M()
	ints := make([]int, 3*m) // one block backs bestCur, occ and pos
	return &orderEval{
		p:       p,
		fill:    multilevel.NewFill(p.instance(nil)),
		prune:   p.Comm.EdgeCount() <= priceMaxTerms-2*m*m-3,
		best:    units.Cost(math.Inf(1)),
		bestCur: ints[:0:m],
		bestGen: -1,
		occ:     ints[m : m : 2*m],
		pos:     ints[2*m:],
	}
}

// eval is the multilevel.Eval of the evaluator.
func (e *orderEval) eval(ordered [][]int) ([]int, units.Cost, bool) {
	_, cur, replays := e.fill.Relabel(ordered)
	if replays && e.cannotWin(cur) {
		e.pruned++
		return nil, 0, false
	}
	pl := Placement(e.fill.Run(ordered))
	// Multi-site restrictions can strand processes the greedy packing
	// could not fit; relocate via augmenting paths.
	if e.p.HasSiteSets() && RepairLeftovers(e.p, pl) != nil {
		return nil, 0, false
	}
	if g := e.fill.Generation(); g != e.gen {
		// Run recorded a new fill: tabulate its placement.
		var rec []int
		rec, cur, replays = e.fill.Relabel(ordered)
		e.tabulate(rec, pl)
		e.gen = g
	}
	cost := e.p.Cost(pl)
	e.exact++
	if cost < e.best {
		e.best, e.bestGen = cost, -1
		if replays {
			e.bestCur, e.bestGen = append(e.bestCur[:0], cur...), e.gen
		}
	}
	return pl, cost, true
}

// cannotWin reports whether the replay of the recorded fill onto the
// visited sites cur is shown to cost no less than e.best: it places every
// process where best's order did, or its table price exceeds the bound.
func (e *orderEval) cannotWin(cur []int) bool {
	if e.bestGen == e.gen && e.sameAsBest(cur) {
		return true
	}
	if !e.prune {
		return false
	}
	// A price that overflowed to +Inf proves nothing. Before any
	// returned cost the bound is +Inf, which no price exceeds.
	price := e.price(cur)
	return price > e.best.Scale(1+priceRel)+priceAbs && !math.IsInf(price.Float(), 1)
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
