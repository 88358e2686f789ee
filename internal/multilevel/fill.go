package multilevel

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// Fill is the greedy body of the paper's Algorithm 1 (lines 3–15) over
// weighted vertices: pin constrained vertices, walk the site groups in
// order, seed each site with the heaviest-communicating admissible vertex
// and grow it by affinity to what is already there. A vertex standing for w
// processes consumes w units of a site's capacity, so at unit weight this
// is the paper's fill exactly: core.GeoMapper runs it on level 0 for every
// order SearchOrders examines, and the multilevel initial map runs it on
// the coarsest level. A Fill owns its scratch, so each goroutine needs its
// own.
//
// Each pick is the best unselected vertex that fits the site's remaining
// room and is admissible on it, under a total key: a seed by highest
// quantity, then lowest index; a growth step by highest affinity to the
// site, then highest quantity, then lowest index. Rather than rescan all
// N vertices per placement, the fill keeps two structures: order, the
// vertices sorted once by (quantity, index), and frontier, a max-heap of
// the vertices whose affinity changed since the site's rebuildAffinity. A
// growth step takes the better of the heap top and the first untouched,
// zero-affinity entry of order, so one order of the groups costs
// O(M·N + E·log E) instead of O(N²). Both structures drop entries lazily,
// and within one site a dropped entry can never be picked again:
// selection is final, the room only shrinks, the allowed sets are fixed,
// an affinity is a sum of non-negative weights that only grows, and each
// change pushes the new value.
//
// On a symmetric level, one with no pinned vertex and no allowed-site set
// (decided once by newFill), no pick ever asks which site it is on: a
// site's fill reads only its capacity and what earlier sites took. So the
// whole fill is a function of its key, the capacity sequence: the
// capacities of the sites in the order Run visits them. Run keeps the key
// and the pick log of its last full fill, site by site in visit order, and
// when the next order has the same key it replays that log through place
// onto the new order's sites instead of filling again. The replay leaves
// the placement, selected, avail and members (with each site's member
// order) exactly as the full fill would, which the initial map's leftover
// repair reads. On the paper's equal-capacity clouds every order shares
// one key, so a κ! search costs one fill per worker plus κ! replays. A
// pinned vertex or an allowed set ties a pick to one site's label, which
// the capacity sequence cannot see, so those levels always fill in full.
type Fill struct {
	in  *Instance
	lv  *level
	ref refLink

	quantity  []units.Cost // static per-vertex communication quantity
	order     []int        // vertices by quantity descending, index ascending
	affinity  []units.Cost
	frontier  []frontierEntry // max-heap of vertices touched since rebuildAffinity
	selected  []bool
	avail     []int
	members   [][]int // vertices currently placed per site
	pl        []int
	groupDone []bool // scratch for the site-selection loop, len M

	// Replay state for a symmetric level; see the type doc.
	symmetric bool
	visits    []int  // scratch: the sites this Run visits, in order, len M
	visited   []bool // scratch: sites already in visits, len M
	key       []int  // key[:nKey]: the capacities of the last full fill's visits
	nKey      int
	recorded  bool  // key, picks and ends describe a full fill
	picks     []int // that fill's vertices, site by site in visit order, len n
	ends      []int // picks[ends[i-1]:ends[i]] went to its i-th visited site
	fullRuns  int   // full fills run, for tests
}

// NewFill returns a fill over in's level-0 graph, pins and allowed sets.
func NewFill(in *Instance) *Fill {
	return newFill(in, &level{g: in.G, pin: in.Pin, allowed: normalizeAllowed(in.Allowed, in.G.n)})
}

func newFill(in *Instance, lv *level) *Fill {
	n := lv.g.n
	f := &Fill{
		in:        in,
		lv:        lv,
		ref:       in.refWeights(),
		quantity:  make([]units.Cost, n),
		affinity:  make([]units.Cost, n),
		selected:  make([]bool, n),
		avail:     make([]int, in.M()),
		members:   make([][]int, in.M()),
		pl:        make([]int, n),
		groupDone: make([]bool, in.M()),
		symmetric: true,
		visited:   make([]bool, in.M()),
	}
	// One block backs the replay's int buffers: visits, key and ends of
	// len M, then picks of len n.
	m := in.M()
	replay := make([]int, 3*m+n)
	f.visits, f.key, f.ends, f.picks = replay[:m:m], replay[m:2*m:2*m], replay[2*m:3*m:3*m], replay[3*m:]
	for v := 0; v < n; v++ {
		if lv.pin[v] >= 0 || len(lv.allowed[v]) > 0 {
			f.symmetric = false
		}
		var q units.Cost
		lv.g.adj.Neighbors(v, func(_ int, vol, msgs float64) {
			q += f.ref.weight(vol, msgs)
		})
		f.quantity[v] = q
	}
	f.order = make([]int, n)
	for v := range f.order {
		f.order[v] = v
	}
	slices.SortFunc(f.order, func(a, b int) int {
		if c := cmp.Compare(f.quantity[b], f.quantity[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return f
}

// frontierEntry is one frontier-heap entry: v with the affinity it had
// when pushed. It is stale once affinity[v] has moved on; the fresher
// entry pushed by that change then stands for v.
type frontierEntry struct {
	aff units.Cost
	v   int
}

// Run fills one ordered group sequence: pinned vertices first, then per
// group the site with the most remaining capacity, seeded with the
// heaviest-communicating admissible vertex that fits and grown by affinity
// to the vertices already on the site. Ties go to the higher quantity,
// then to the lower index. It returns the placement with -1 for every
// vertex no site took. The slice is reused by the next Run, so callers
// must copy it to keep it; every buffer lives on the Fill, so the
// thousands of orders a search runs do not allocate. On a symmetric
// level an order with the last full fill's key replays that fill's picks.
//
//geolint:allocfree
func (f *Fill) Run(orderedGroups [][]int) []int {
	f.reset()
	if !f.symmetric {
		f.fill(orderedGroups)
		return f.pl
	}
	nv, ok := f.visitOrder(orderedGroups)
	switch {
	case !ok:
		f.fill(orderedGroups)
	case f.recorded && f.sameKey(nv):
		f.replay(nv)
	default:
		f.fill(orderedGroups)
		f.record(nv)
	}
	return f.pl
}

// reset empties the placement and restores every site's capacity.
func (f *Fill) reset() {
	for i := range f.selected {
		f.selected[i] = false
		f.pl[i] = -1
	}
	copy(f.avail, f.in.Capacity)
	for s := range f.members {
		f.members[s] = f.members[s][:0]
	}
}

// nextSite returns the index in group of the site not yet done with the
// most room, ties to the lower index, or -1 when no site has room ≥ 0.
func nextSite(group []int, done []bool, room []int) int {
	best, bestRoom := -1, -1
	for idx, s := range group {
		if !done[idx] && room[s] > bestRoom {
			best, bestRoom = idx, room[s]
		}
	}
	return best
}

// visitOrder writes into f.visits the sites a fill of orderedGroups on a
// symmetric level visits, in order, and returns their count. With no pins,
// a site's room when its group picks the next site is still its capacity,
// so this is fill's own site selection run ahead of the picks. It reports
// false when a site appears twice, which fill would visit again with what
// it already holds, so no key describes the run.
func (f *Fill) visitOrder(orderedGroups [][]int) (int, bool) {
	for s := range f.visited {
		f.visited[s] = false
	}
	nv := 0
	for _, group := range orderedGroups {
		done := f.groupDone[:len(group)]
		for i := range done {
			done[i] = false
		}
		for range group {
			idx := nextSite(group, done, f.in.Capacity)
			if idx == -1 {
				break
			}
			done[idx] = true
			site := group[idx]
			if f.visited[site] {
				return 0, false
			}
			f.visited[site] = true
			f.visits[nv] = site
			nv++
		}
	}
	return nv, true
}

// sameKey reports whether the nv sites in f.visits have the recorded
// capacity sequence.
func (f *Fill) sameKey(nv int) bool {
	if nv != f.nKey {
		return false
	}
	for i, s := range f.visits[:nv] {
		if f.in.Capacity[s] != f.key[i] {
			return false
		}
	}
	return true
}

// record keeps the key and pick log of the full fill that just visited
// f.visits[:nv]. Each visited site's members are exactly its picks, in
// pick order, since no vertex is pinned and no site is visited twice.
func (f *Fill) record(nv int) {
	k := 0
	for i, s := range f.visits[:nv] {
		f.key[i] = f.in.Capacity[s]
		k += copy(f.picks[k:], f.members[s])
		f.ends[i] = k
	}
	f.nKey, f.recorded = nv, true
}

// replay places the recorded picks onto the sites in f.visits[:nv], the
// i-th visited site taking what the recorded fill's i-th site took.
func (f *Fill) replay(nv int) {
	k := 0
	for i, s := range f.visits[:nv] {
		for _, v := range f.picks[k:f.ends[i]] {
			f.place(v, s)
		}
		k = f.ends[i]
	}
}

// fill runs the greedy fill of one ordered group sequence from reset.
func (f *Fill) fill(orderedGroups [][]int) {
	f.fullRuns++
	g := f.lv.g
	n := g.n
	// The scans below read these as locals resliced to n, so the headers
	// stay in registers and the compiler drops the bounds checks.
	weight, pin, allowed := g.weight[:n], f.lv.pin[:n], f.lv.allowed[:n]
	selected, affinity, order := f.selected[:n], f.affinity[:n], f.order[:n]
	remaining := n
	seedFrom := 0 // order[:seedFrom] is all selected

	// Lines 4–6: pin constrained vertices and reduce availability.
	for v, p := range pin {
		if p < 0 {
			continue
		}
		f.place(v, p)
		remaining--
	}

	// Lines 7–15: walk groups in order, filling sites one at a time.
	for _, group := range orderedGroups {
		if remaining == 0 {
			break
		}
		// Each iteration picks the unfilled site in the group with the
		// most remaining capacity (line 10).
		groupDone := f.groupDone[:len(group)]
		for i := range groupDone {
			groupDone[i] = false
		}
		for range group {
			idx := nextSite(group, groupDone, f.avail)
			if idx == -1 {
				break
			}
			groupDone[idx] = true
			site := group[idx]
			if f.avail[site] <= 0 {
				continue
			}
			if remaining == 0 {
				break
			}

			// Line 9: seed with the globally heaviest unselected vertex
			// that is admissible on this site and fits its capacity: the
			// first such entry of order.
			for seedFrom < n && selected[order[seedFrom]] {
				seedFrom++
			}
			seed := -1
			room := f.avail[site]
			for _, v := range order[seedFrom:] {
				if !selected[v] && weight[v] <= room && allowedOn(pin[v], allowed[v], site) {
					seed = v
					break
				}
			}
			if seed == -1 {
				continue // no admissible vertex for this site
			}
			f.place(seed, site)
			remaining--

			// Lines 12–14: fill the rest of the site with the vertices
			// most attached to what is already there — the seed plus any
			// vertices pinned to the site. The best touched vertex is the
			// frontier top; the best untouched one, at affinity zero, is
			// the first admissible untouched entry of order. Entries the
			// cursor passes stay out of reach for the rest of the site.
			f.rebuildAffinity(site)
			untouchedFrom := 0
			for f.avail[site] > 0 && remaining > 0 {
				room := f.avail[site]
				next := f.frontierTop(site, room)
				for ; untouchedFrom < n; untouchedFrom++ {
					v := order[untouchedFrom]
					if !selected[v] && affinity[v] == 0 && weight[v] <= room && allowedOn(pin[v], allowed[v], site) {
						break
					}
				}
				if untouchedFrom < n && (next == -1 || f.before(order[untouchedFrom], next)) {
					next = order[untouchedFrom]
				}
				if next == -1 {
					break // remaining vertices are inadmissible here
				}
				f.place(next, site)
				remaining--
				f.addAffinity(next)
			}
		}
	}
}

// before reports whether vertex a precedes b in the pick key: higher
// affinity, then higher quantity, then lower index.
func (f *Fill) before(a, b int) bool {
	return f.entryBefore(frontierEntry{f.affinity[a], a}, frontierEntry{f.affinity[b], b})
}

// entryBefore is before over frontier entries, at their pushed affinity.
func (f *Fill) entryBefore(a, b frontierEntry) bool {
	if a.aff != b.aff {
		return a.aff > b.aff
	}
	if qa, qb := f.quantity[a.v], f.quantity[b.v]; qa != qb {
		return qa > qb
	}
	return a.v < b.v
}

// frontierTop returns the best touched vertex that is unselected, fits in
// room and is admissible on site, or -1. It pops the entries above it:
// stale ones, and vertices that are selected, too heavy or inadmissible,
// none of which can become a candidate again while site is being filled.
func (f *Fill) frontierTop(site, room int) int {
	for len(f.frontier) > 0 {
		e := f.frontier[0]
		v := e.v
		if !f.selected[v] && e.aff == f.affinity[v] && f.lv.g.weight[v] <= room && allowedOn(f.lv.pin[v], f.lv.allowed[v], site) {
			return v
		}
		f.popFrontier()
	}
	return -1
}

// pushFrontier adds v at its current affinity to the frontier heap.
func (f *Fill) pushFrontier(v int) {
	//geolint:allocsite amortized: frontier is reset to [:0] per site, so growth converges to the per-site high-water mark
	h := append(f.frontier, frontierEntry{f.affinity[v], v})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !f.entryBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	f.frontier = h
}

// popFrontier removes the frontier heap's top entry.
func (f *Fill) popFrontier() {
	h := f.frontier
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && f.entryBefore(h[r], h[c]) {
			c = r
		}
		if !f.entryBefore(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	f.frontier = h
}

// place assigns v to site and updates the capacity bookkeeping.
func (f *Fill) place(v, site int) {
	f.pl[v] = site
	f.selected[v] = true
	f.avail[site] -= f.lv.g.weight[v]
	//geolint:allocsite amortized: members is reset to [:0] per Run, so growth converges to the per-site high-water mark
	f.members[site] = append(f.members[site], v)
}

// rebuildAffinity recomputes every vertex's total traffic with the vertices
// already placed on site and restarts the frontier from them.
func (f *Fill) rebuildAffinity(site int) {
	for i := range f.affinity {
		f.affinity[i] = 0
	}
	f.frontier = f.frontier[:0]
	for _, v := range f.members[site] {
		f.addAffinity(v)
	}
}

// addAffinity adds v's traffic, out+in per peer, into the affinity array
// after v has been placed on the site currently being filled, and pushes
// each unselected peer's new affinity onto the frontier.
func (f *Fill) addAffinity(v int) {
	f.lv.g.adj.Neighbors(v, func(j int, vol, msgs float64) {
		f.affinity[j] += f.ref.weight(vol, msgs)
		if !f.selected[j] {
			f.pushFrontier(j)
		}
	})
}

// Eval fills, repairs and prices one order of the site groups. It returns
// the placement, which it may reuse on its next call, the placement's cost,
// and false when the order admits no feasible placement.
type Eval func(orderedGroups [][]int) (pl []int, cost units.Cost, ok bool)

// SearchOrders is the outer loop of the paper's Algorithm 1, and the
// repository's only group-order search: it evaluates the orders of
// groups whose lexicographic rank lies in [0, limit), with limit clamped to
// κ!, and returns a copy of the cheapest feasible placement with its cost,
// or ok == false when every examined order is infeasible.
//
// The ranks are split into contiguous ranges, one per worker (workers ≤ 0
// selects GOMAXPROCS, and there are never more workers than ranks); each
// worker evaluates its range in ascending rank order with its own
// evaluator from newEval and keeps the first strict minimum. The
// reduction takes the minimum cost and, on an exact tie, the lower range,
// so the lowest rank wins and the result is byte-identical at any worker
// count. One worker runs on the calling goroutine.
func SearchOrders(groups [][]int, limit, workers int, newEval func() Eval) (best []int, cost units.Cost, ok bool) {
	k := len(groups)
	limit = min(limit, stats.FactorialInt(k))
	workers = min(workerCount(workers), limit)
	results := make([]orderRange, workers)
	search := func(w int) {
		r := &results[w]
		r.cost = units.Cost(math.Inf(1))
		eval := newEval()
		ordered := make([][]int, k)
		stats.PermutationRange(k, w*limit/workers, (w+1)*limit/workers, func(_ int, perm []int) bool {
			for i, gi := range perm {
				ordered[i] = groups[gi]
			}
			if pl, c, ok := eval(ordered); ok && c < r.cost {
				r.best = append(r.best[:0], pl...)
				r.cost = c
				r.found = true
			}
			return true
		})
	}
	if workers == 1 {
		search(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				search(w)
			}(w)
		}
		wg.Wait()
	}
	bi := -1
	for w := range results {
		if results[w].found && (bi < 0 || results[w].cost < results[bi].cost) {
			bi = w
		}
	}
	if bi < 0 {
		return nil, 0, false
	}
	return results[bi].best, results[bi].cost, true
}

// orderRange is one worker's cheapest feasible order in its rank range.
type orderRange struct {
	best  []int
	cost  units.Cost
	found bool
}
