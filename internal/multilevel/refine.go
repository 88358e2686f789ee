package multilevel

import (
	"math"
	"sort"
	"sync"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/units"
)

// proposal is one candidate local-search step found by the proposal phase:
// either move v to site (peer == -1) or swap v with peer. delta is the
// objective change evaluated against the pass's placement snapshot.
type proposal struct {
	delta units.Cost
	v     int
	peer  int
	site  int
}

// refiner runs the uncoarsening local search: per pass, a parallel
// proposal phase computes every vertex's best admissible move/swap against
// a read-only placement snapshot, the proposals are reduced into a single
// (gain, lowest-id) order, and a sequential commit phase re-validates each
// winner against the live placement before applying it.
//
// Determinism at any worker count: proposals are pure functions of the
// snapshot, workers own contiguous vertex ranges whose buffers are
// concatenated in range order, and the sort's tie-breaks (vertex id, then
// peer, then site) leave no equal elements — so the commit sequence, and
// therefore the placement, is byte-identical whether one goroutine
// proposed or sixteen did.
type refiner struct {
	in      *Instance
	workers int
	passes  int

	// Per-level wiring (set by attach).
	g       *Graph
	pin     []int
	allowed [][]int

	load  []int
	bufs  [][]proposal
	props []proposal

	moves, swaps, totalPasses int
}

func newRefiner(in *Instance, workers, passes int) *refiner {
	return &refiner{
		in:      in,
		workers: workers,
		passes:  passes,
		load:    make([]int, in.M()),
		bufs:    make([][]proposal, workers),
	}
}

// attach points the refiner at one hierarchy level.
func (r *refiner) attach(lv *level) {
	r.g = lv.g
	r.pin = lv.pin
	r.allowed = lv.allowed
}

// refine improves pl in place with up to r.passes proposal/commit sweeps,
// stopping early when a sweep applies nothing.
func (r *refiner) refine(pl []int) {
	for i := range r.load {
		r.load[i] = 0
	}
	for v, s := range pl {
		r.load[s] += r.g.weight[v]
	}
	for pass := 0; pass < r.passes; pass++ {
		// Deltas are exact per proposal but the commit accumulates them
		// incrementally; re-anchor the tolerance on the true objective
		// each pass so FP drift cannot masquerade as improvement.
		tol := RefineTol(r.in.cost(r.g, pl))
		r.propose(pl, tol)
		if r.commit(pl, tol) == 0 {
			break
		}
		r.totalPasses++
	}
}

// propose fans the proposal scan out over contiguous vertex ranges.
func (r *refiner) propose(pl []int, tol units.Cost) {
	n := r.g.n
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		r.bufs[0] = r.proposeRange(pl, 0, n, tol, r.bufs[0][:0])
		r.props = r.props[:0]
		r.props = append(r.props, r.bufs[0]...)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			lo := w * n / workers
			hi := (w + 1) * n / workers
			r.bufs[w] = r.proposeRange(pl, lo, hi, tol, r.bufs[w][:0])
		}(w)
	}
	wg.Wait()
	r.props = r.props[:0]
	for w := 0; w < workers; w++ {
		r.props = append(r.props, r.bufs[w]...)
	}
}

// proposeRange is the refinement inner loop: for every unpinned vertex in
// [lo, hi) it evaluates all admissible site moves and neighbor swaps
// against the snapshot and records the best one if it clears the
// tolerance. All evaluation is O(degree) arithmetic over the CSR rows;
// the buffer is reset to [:0] by the caller each pass, so steady-state
// passes do not allocate — BenchmarkRefineMove* and the bench-alloc gate
// measure exactly this path.
//
//geolint:allocfree
func (r *refiner) proposeRange(pl []int, lo, hi int, tol units.Cost, buf []proposal) []proposal {
	for v := lo; v < hi; v++ {
		if r.pin[v] >= 0 {
			continue
		}
		p, ok := r.bestStep(pl, v, tol)
		if ok {
			//geolint:allocsite amortized: the proposal buffer is reset to [:0] per pass, so growth converges to the per-pass high-water mark
			buf = append(buf, p)
		}
	}
	return buf
}

// bestStep returns v's best admissible step against the snapshot: the
// minimum-delta choice over all site moves (sites ascending) and all
// neighbor swaps (peers ascending), strict improvement only. The scan
// order plus strict < make the winner independent of evaluation order.
//
//geolint:allocfree
func (r *refiner) bestStep(pl []int, v int, tol units.Cost) (proposal, bool) {
	g := r.g
	sv := pl[v]
	w := g.weight[v]
	best := proposal{delta: -tol, v: v, peer: -1, site: -1}
	found := false
	for s := 0; s < r.in.M(); s++ {
		if s == sv || !allowedOn(-1, r.allowed[v], s) {
			continue
		}
		if r.load[s]+w > r.in.Capacity[s] {
			continue
		}
		d := r.in.moveDelta(g, pl, v, s)
		if d < best.delta {
			best.delta = d
			best.peer = -1
			best.site = s
			found = true
		}
	}
	for _, row := range [2][]comm.Edge{g.out(v), g.in(v)} {
		for _, e := range row {
			if d, ok := r.trySwap(pl, v, e.Peer, best.delta); ok {
				best.delta = d
				best.peer = e.Peer
				best.site = -1
				found = true
			}
		}
	}
	return best, found
}

// trySwap evaluates the swap of v and u if it is admissible and beats the
// current bound.
//
//geolint:allocfree
func (r *refiner) trySwap(pl []int, v, u int, bound units.Cost) (units.Cost, bool) {
	if r.pin[u] >= 0 || pl[u] == pl[v] {
		return 0, false
	}
	sv, su := pl[v], pl[u]
	if !allowedOn(-1, r.allowed[v], su) || !allowedOn(-1, r.allowed[u], sv) {
		return 0, false
	}
	g := r.g
	wv, wu := g.weight[v], g.weight[u]
	if wv != wu {
		if r.load[sv]-wv+wu > r.in.Capacity[sv] || r.load[su]-wu+wv > r.in.Capacity[su] {
			return 0, false
		}
	}
	d := r.in.swapDelta(g, pl, v, u)
	if d < bound {
		return d, true
	}
	return 0, false
}

// moveDelta is the objective change of moving v to site s on level graph
// g: its incident directed edges re-priced at the new site pair, plus its
// absorbed intra-vertex traffic re-priced at the new intra-site rate.
// O(degree). It and swapDelta are the repository's only incremental α–β
// kernel: the refiner calls them per level, and core's exchange sweep,
// MPIPP and Remap call them at level 0 through MoveDelta and SwapDelta.
//
//geolint:allocfree
func (in *Instance) moveDelta(g *Graph, pl []int, v, s int) units.Cost {
	sv := pl[v]
	var d units.Cost
	for _, e := range g.out(v) {
		su := pl[e.Peer]
		d += in.linkCost(s, su, e.Volume, e.Msgs) - in.linkCost(sv, su, e.Volume, e.Msgs)
	}
	for _, e := range g.in(v) {
		su := pl[e.Peer]
		d += in.linkCost(su, s, e.Volume, e.Msgs) - in.linkCost(su, sv, e.Volume, e.Msgs)
	}
	if g.selfVol[v] != 0 || g.selfMsgs[v] != 0 {
		d += in.linkCost(s, s, g.selfVol[v], g.selfMsgs[v]) - in.linkCost(sv, sv, g.selfVol[v], g.selfMsgs[v])
	}
	return d
}

// swapSite is the post-swap site of vertex j when v and u trade places.
//
//geolint:allocfree
func swapSite(pl []int, j, v, u, sv, su int) int {
	switch j {
	case v:
		return su
	case u:
		return sv
	default:
		return pl[j]
	}
}

// swapDelta is the objective change of exchanging the sites of v and u on
// level graph g, computed over their incident edges: v's edges fully, u's
// edges excluding the shared (u, v) pair already counted, plus both
// vertices' absorbed traffic. O(deg(v)+deg(u)).
//
//geolint:allocfree
func (in *Instance) swapDelta(g *Graph, pl []int, v, u int) units.Cost {
	sv, su := pl[v], pl[u]
	var d units.Cost
	for _, e := range g.out(v) {
		j := e.Peer
		d += in.linkCost(su, swapSite(pl, j, v, u, sv, su), e.Volume, e.Msgs) -
			in.linkCost(sv, pl[j], e.Volume, e.Msgs)
	}
	for _, e := range g.in(v) {
		j := e.Peer
		d += in.linkCost(swapSite(pl, j, v, u, sv, su), su, e.Volume, e.Msgs) -
			in.linkCost(pl[j], sv, e.Volume, e.Msgs)
	}
	for _, e := range g.out(u) {
		j := e.Peer
		if j == v {
			continue
		}
		d += in.linkCost(sv, swapSite(pl, j, v, u, sv, su), e.Volume, e.Msgs) -
			in.linkCost(su, pl[j], e.Volume, e.Msgs)
	}
	for _, e := range g.in(u) {
		j := e.Peer
		if j == v {
			continue
		}
		d += in.linkCost(swapSite(pl, j, v, u, sv, su), sv, e.Volume, e.Msgs) -
			in.linkCost(pl[j], su, e.Volume, e.Msgs)
	}
	if g.selfVol[v] != 0 || g.selfMsgs[v] != 0 {
		d += in.linkCost(su, su, g.selfVol[v], g.selfMsgs[v]) - in.linkCost(sv, sv, g.selfVol[v], g.selfMsgs[v])
	}
	if g.selfVol[u] != 0 || g.selfMsgs[u] != 0 {
		d += in.linkCost(sv, sv, g.selfVol[u], g.selfMsgs[u]) - in.linkCost(su, su, g.selfVol[u], g.selfMsgs[u])
	}
	return d
}

// MoveDelta is moveDelta on the level-0 graph: the cost change of moving
// process v of a level-0 placement to site s.
//
//geolint:allocfree
func (in *Instance) MoveDelta(pl []int, v, s int) units.Cost { return in.moveDelta(in.G, pl, v, s) }

// SwapDelta is swapDelta on the level-0 graph: the cost change of
// exchanging the sites of processes v and u of a level-0 placement.
//
//geolint:allocfree
func (in *Instance) SwapDelta(pl []int, v, u int) units.Cost { return in.swapDelta(in.G, pl, v, u) }

// commit applies the reduced proposals in (gain, lowest-id) order. Each
// proposal's delta is re-evaluated against the live placement — earlier
// commits may have consumed its gain or its capacity headroom — and only
// still-improving, still-feasible steps are applied. Returns the number of
// applied steps.
func (r *refiner) commit(pl []int, tol units.Cost) int {
	props := r.props
	sort.Slice(props, func(a, b int) bool {
		pa, pb := &props[a], &props[b]
		if pa.delta != pb.delta {
			return pa.delta < pb.delta
		}
		if pa.v != pb.v {
			return pa.v < pb.v
		}
		if pa.peer != pb.peer {
			return pa.peer < pb.peer
		}
		return pa.site < pb.site
	})
	applied := 0
	g := r.g
	for i := range props {
		p := &props[i]
		if p.peer < 0 {
			v, s := p.v, p.site
			sv := pl[v]
			w := g.weight[v]
			if s == sv || r.load[s]+w > r.in.Capacity[s] {
				continue
			}
			if d := r.in.moveDelta(g, pl, v, s); d < -tol {
				pl[v] = s
				r.load[sv] -= w
				r.load[s] += w
				applied++
				r.moves++
			}
			continue
		}
		v, u := p.v, p.peer
		sv, su := pl[v], pl[u]
		if sv == su {
			continue
		}
		if !allowedOn(-1, r.allowed[v], su) || !allowedOn(-1, r.allowed[u], sv) {
			continue
		}
		wv, wu := g.weight[v], g.weight[u]
		if wv != wu {
			if r.load[sv]-wv+wu > r.in.Capacity[sv] || r.load[su]-wu+wv > r.in.Capacity[su] {
				continue
			}
		}
		if d := r.in.swapDelta(g, pl, v, u); d < -tol {
			pl[v], pl[u] = su, sv
			r.load[sv] += wu - wv
			r.load[su] += wv - wu
			applied++
			r.swaps++
		}
	}
	return applied
}

// RefineTol is the minimum improvement a refinement step must deliver,
// relative to the current objective: an absolute threshold is vacuous
// against costs orders of magnitude above 1 (every FP-noise "improvement"
// passes, and the pass loop can churn without converging) and needlessly
// strict near zero. The floor of 1 keeps the threshold meaningful for
// near-zero objectives. This refiner, core's Problem.Exchange sweep and
// MPIPP, which runs that sweep on its edge-cut objective, all use it.
func RefineTol(c units.Cost) units.Cost {
	m := math.Abs(c.Float())
	if m < 1 {
		m = 1
	}
	return units.Cost(m).Scale(1e-12)
}
