package multilevel

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"unsafe"

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
// the coarsest level. What no pick changes, the seed order and the
// weighted neighbour rows, lives in a FillTable that every Fill of the
// level shares; a Fill owns only its scratch, so each goroutine needs its
// own. Both are scratch of one search: NewFillTable and NewFill take them
// from the package's pools, SearchOrders returns each worker's Fill when
// the worker is done, and whoever built the table releases it once
// SearchOrders returns (see Release).
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
// Pins enter a fill in two places only. They are placed before the walk,
// so every pinned vertex is selected in every order, and each site starts
// the walk with its capacity less its pins as room. No pick lands on a
// site before the walk visits it, so nextSite orders a group's sites by
// that room, the room left after pins. And a site's growth starts from
// its members, so the vertices pinned to it seed its affinities. A site
// with no pins therefore never reads another site's pins: it sees them
// only as vertices already selected, one fixed set in every order.
//
// On a symmetric level, one with no pinned vertex and no allowed-site set
// (decided once by NewFillTable), no pick ever asks which site it is on: a
// site's fill reads only its capacity and what earlier sites took. So the
// whole fill is a function of its key, the capacity sequence: the
// capacities of the sites in the order Run visits them. On such a level
// Run logs its picks, site by site in visit order, and Replay places that
// log through place onto the sites another order of the same key visits
// instead of filling again. The replay leaves the placement, selected,
// avail and members (with each site's member order) exactly as Run would,
// which the initial map's leftover repair reads. The Fill never compares
// keys: SearchOrders sorts the ranks into key classes before any fill,
// and each evaluator runs its class's first order and replays the others,
// so a search runs one full fill per distinct key at any worker count:
// one on the paper's equal-capacity clouds. A pinned vertex or an allowed
// set ties a pick to one site's label, which the capacity sequence cannot
// see, so on those levels every class is one order and every order fills
// in full.
//
// Order and Visits let a caller price a replay before running it, as
// core.GeoMapper does from the logged placement's site-pair traffic.
type Fill struct {
	*FillTable

	affinity  []units.Cost
	frontier  []frontierEntry // max-heap of vertices touched since rebuildAffinity
	selected  []bool
	avail     []int
	members   [][]int // vertices currently placed per site
	pl        []int
	groupDone []bool  // scratch for the site-selection loop, len M
	ordered   [][]int // scratch: one order of the instance's groups

	// Replay state for a symmetric level; see the type doc.
	visits   []int  // scratch: the sites an order visits, in order, len M
	visited  []bool // scratch: sites already in visits, len M
	picks    []int  // the last Run's vertices, site by site in visit order, len n
	ends     []int  // picks[ends[i-1]:ends[i]] went to its i-th visited site
	fullRuns int    // full fills run, for tests
}

// FillTable is the read-only part of the Fills over one level: what no
// pick changes, built once by NewFillTable and shared by every Fill of
// the level, across goroutines, without locks. Its buffers come from the
// package's pool, and Release hands them back.
type FillTable struct {
	in        *Instance
	lv        *level
	symmetric bool // no pinned vertex and no allowed-site set

	quantity []units.Cost // static per-vertex communication quantity
	order    []int        // vertices by quantity descending, index ascending

	// Row v, nbrs[nbrIdx[v]:nbrIdx[v+1]], lists v's neighbours in
	// comm.CSR.Neighbors order with the reference-link weight of their
	// merged out+in traffic: quantity[v] is the row's sum in that order,
	// and placing v adds each entry's weight to its peer's affinity.
	nbrIdx []int
	nbrs   []weightedPeer

	seed seedScratch // seedOrder's buffers; order is one of them
}

// The package's scratch pools. A FillTable or Fill taken from one is
// resized and cleared, or fully overwritten, before it is read, and
// drops its instance and level when it goes back, so no pooled buffer
// carries one search's data into the next. Scratch above maxPooledBytes
// is left to the collector rather than held: 1 MB, about the table of a
// sparse level of 5,000 vertices or the fill of one of 20,000.
var (
	tablePool = sync.Pool{New: func() any { return new(FillTable) }}
	fillPool  = sync.Pool{New: func() any { return new(Fill) }}
)

const maxPooledBytes = 1 << 20

// resize returns s with length n and every element zero, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// byteSize is the size of s's array in bytes.
func byteSize[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// weightedPeer is one entry of a FillTable row.
type weightedPeer struct {
	v int
	w units.Cost
}

// NewFillTable returns the table of in's level-0 graph, pins and allowed
// sets, in scratch from the package's pool: the caller hands it back with
// Release once its search is done.
func NewFillTable(in *Instance) *FillTable {
	return newFillTable(in, &level{g: in.G, pin: in.Pin, allowed: normalizeAllowed(in.Allowed, in.G.n)})
}

func newFillTable(in *Instance, lv *level) *FillTable {
	n := lv.g.n
	adj := lv.g.adj
	t := tablePool.Get().(*FillTable)
	t.in, t.lv, t.symmetric = in, lv, true
	t.quantity = resize(t.quantity, n)
	t.nbrIdx = resize(t.nbrIdx, n+1)
	// Size the rows first: v's neighbours are the peers of its out row
	// and its in row, a peer in both counted once.
	for v := 0; v < n; v++ {
		outRow, inRow := adj.Out[adj.OutIdx[v]:adj.OutIdx[v+1]], adj.In[adj.InIdx[v]:adj.InIdx[v+1]]
		k, both := 0, 0
		for _, e := range outRow {
			for k < len(inRow) && inRow[k].Peer < e.Peer {
				k++
			}
			if k < len(inRow) && inRow[k].Peer == e.Peer {
				both++
			}
		}
		t.nbrIdx[v+1] = t.nbrIdx[v] + len(outRow) + len(inRow) - both
	}
	t.nbrs = resize(t.nbrs, t.nbrIdx[n])
	ref := in.refWeights()
	for v := 0; v < n; v++ {
		if lv.pin[v] >= 0 || len(lv.allowed[v]) > 0 {
			t.symmetric = false
		}
		var q units.Cost
		row := t.nbrs[t.nbrIdx[v]:t.nbrIdx[v+1]]
		adj.Neighbors(v, func(j int, vol, msgs float64) {
			w := ref.weight(vol, msgs)
			q += w
			row[0], row = weightedPeer{j, w}, row[1:]
		})
		t.quantity[v] = q
	}
	t.order = t.seed.seedOrder(t.quantity)
	return t
}

// Release hands the table back to the package's pool. The caller must
// not use the table, or any Fill over it, afterwards. A table above
// maxPooledBytes goes to the collector instead.
func (t *FillTable) Release() {
	t.in, t.lv, t.order = nil, nil, nil
	s := &t.seed
	if byteSize(t.quantity)+byteSize(t.nbrIdx)+byteSize(t.nbrs)+byteSize(s.order)+byteSize(s.spare)+byteSize(s.keys)+byteSize(s.spareKeys) > maxPooledBytes {
		return
	}
	tablePool.Put(t)
}

// seedScratch is seedOrder's working memory: two vertex buffers and two
// key buffers, which each counting pass swaps.
type seedScratch struct {
	order, spare    []int
	keys, spareKeys []uint64
}

// seedOrder returns the vertices by quantity descending, then index
// ascending, in one of s's buffers. Non-negative float64s order as their
// bit patterns do, so when no quantity is NaN or carries a sign bit,
// stable counting passes over the complemented bit patterns, one byte
// each from the lowest, give that order without a comparison. One pass
// counts all eight bytes, and a byte every vertex shares gets no pass.
// Otherwise a comparison sort does.
func (s *seedScratch) seedOrder(quantity []units.Cost) []int {
	n := len(quantity)
	s.order = resize(s.order, n)
	order := s.order
	for v := range order {
		order[v] = v
	}
	s.keys = resize(s.keys, n)
	keys := s.keys
	for v, q := range quantity {
		if math.IsNaN(q.Float()) || math.Signbit(q.Float()) {
			slices.SortFunc(order, func(a, b int) int {
				if c := cmp.Compare(quantity[b], quantity[a]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			return order
		}
		keys[v] = ^math.Float64bits(q.Float())
	}
	if n == 0 {
		return order
	}
	var count [8][256]int
	for _, k := range keys {
		for b := range count {
			count[b][k>>(8*b)&0xff]++
		}
	}
	s.spare, s.spareKeys = resize(s.spare, n), resize(s.spareKeys, n)
	nextOrder, nextKeys := s.spare, s.spareKeys
	for b := range count {
		c := &count[b]
		if c[keys[0]>>(8*b)&0xff] == n {
			continue // every vertex has this byte: the pass would move none
		}
		start := 0
		for d, k := range c {
			c[d] = start
			start += k
		}
		for i, k := range keys {
			d := k >> (8 * b) & 0xff
			nextOrder[c[d]], nextKeys[c[d]] = order[i], k
			c[d]++
		}
		order, nextOrder = nextOrder, order
		keys, nextKeys = nextKeys, keys
	}
	s.order, s.spare = order, nextOrder
	s.keys, s.spareKeys = keys, nextKeys
	return order
}

// NewFill returns a fill over t's level with its own scratch, taken from
// the package's pool. SearchOrders hands each worker's fill back when
// the worker is done; a fill a caller makes itself is simply dropped.
func NewFill(t *FillTable) *Fill {
	f := fillPool.Get().(*Fill)
	f.attach(t)
	return f
}

// attach points f at t's level and sizes its scratch for it, every
// buffer empty and zero as a new Fill's would be, whatever level f
// filled before.
func (f *Fill) attach(t *FillTable) {
	n, m := t.lv.g.n, t.in.M()
	f.FillTable = t
	f.affinity = resize(f.affinity, n)
	f.frontier = f.frontier[:0]
	f.selected = resize(f.selected, n)
	f.avail = resize(f.avail, m)
	if cap(f.members) < m {
		f.members = make([][]int, m)
	}
	f.members = f.members[:m]
	for s := range f.members {
		f.members[s] = f.members[s][:0]
	}
	f.pl = resize(f.pl, n)
	f.groupDone = resize(f.groupDone, m)
	f.ordered = resize(f.ordered, len(t.in.Groups))
	f.visits = resize(f.visits, m)
	f.visited = resize(f.visited, m)
	f.picks = resize(f.picks, n)
	f.ends = resize(f.ends, m)
	f.fullRuns = 0
}

// release hands f back to the package's pool, unless its scratch
// exceeds maxPooledBytes. The caller must not use f afterwards.
func (f *Fill) release() {
	size := byteSize(f.affinity) + byteSize(f.frontier) + byteSize(f.selected) + byteSize(f.avail) +
		byteSize(f.members) + byteSize(f.pl) + byteSize(f.groupDone) + byteSize(f.ordered) +
		byteSize(f.visits) + byteSize(f.visited) + byteSize(f.picks) + byteSize(f.ends)
	for _, mem := range f.members[:cap(f.members)] {
		size += byteSize(mem)
	}
	f.FillTable = nil
	clear(f.ordered) // the groups of the instance it last filled
	if size <= maxPooledBytes {
		fillPool.Put(f)
	}
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
// thousands of orders a search runs do not allocate. Run always fills in
// full; on a symmetric level it also logs its picks for Replay.
//
//geolint:allocfree
func (f *Fill) Run(orderedGroups [][]int) []int {
	f.reset()
	f.fill(orderedGroups)
	if f.symmetric {
		// Each visited site's members are exactly its picks, in pick
		// order, as no vertex is pinned. An order that visits a site twice
		// logs nothing (nv = 0): SearchOrders gives it a class of its own.
		nv, _ := f.visitOrder(orderedGroups, f.visits, f.visited, f.groupDone)
		k := 0
		for i, s := range f.visits[:nv] {
			k += copy(f.picks[k:], f.members[s])
			f.ends[i] = k
		}
	}
	return f.pl
}

// Replay returns what Run(orderedGroups) would, and leaves selected,
// avail and members as that Run would, without filling: it places the
// last Run's picks onto the sites orderedGroups visits, the i-th visited
// site taking what the last Run put on its i-th. The placement slice is
// Run's. Precondition: orderedGroups is in the key class of the last
// Run's order (see SearchOrders), which holds for every order of a class
// SearchOrders hands out once its evaluator has run the class's first
// order.
//
//geolint:allocfree
func (f *Fill) Replay(orderedGroups [][]int) []int {
	f.reset()
	k := 0
	for i, s := range f.Visits(orderedGroups) {
		for _, v := range f.picks[k:f.ends[i]] {
			f.place(v, s)
		}
		k = f.ends[i]
	}
	return f.pl
}

// Order returns the instance's groups in the order of lexicographic rank
// rank, as stats.Unrank decodes it, in scratch the next Order reuses.
//
//geolint:allocfree
func (f *Fill) Order(rank int) [][]int {
	stats.Unrank(f.ordered, f.in.Groups, rank)
	return f.ordered
}

// Visits returns the sites Run(orderedGroups) visits, in order, for an
// order of a key class of several ranks (see SearchOrders). Run puts on
// the i-th site one order of the class visits what it puts on the i-th
// site any other visits. The slice is scratch the next Run, Replay or
// Visits reuses.
//
//geolint:allocfree
func (f *Fill) Visits(orderedGroups [][]int) []int {
	nv, _ := f.visitOrder(orderedGroups, f.visits, f.visited, f.groupDone)
	return f.visits[:nv]
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

// visitOrder writes into visits the sites a fill of orderedGroups on a
// symmetric level visits, in order, and returns their count; visited and
// done are its scratch, each len M. With no pins, a site's room when its
// group picks the next site is still its capacity, so this is fill's own
// site selection run ahead of the picks. It reports false when a site
// appears twice, which fill would visit again with what it already
// holds, so no key describes the run.
func (t *FillTable) visitOrder(orderedGroups [][]int, visits []int, visited, done []bool) (int, bool) {
	clear(visited)
	nv := 0
	for _, group := range orderedGroups {
		done := done[:len(group)]
		clear(done)
		for range group {
			idx := nextSite(group, done, t.in.Capacity)
			if idx == -1 {
				break
			}
			done[idx] = true
			site := group[idx]
			if visited[site] {
				return 0, false
			}
			visited[site] = true
			visits[nv] = site
			nv++
		}
	}
	return nv, true
}

// keyClasses returns the key classes of the ranks [0, limit), limit ≤ κ!
// (see SearchOrders), each in ascending rank order, ordered by lowest
// rank.
func (t *FillTable) keyClasses(limit int) [][]int {
	m, groups := t.in.M(), t.in.Groups
	visits, flags := make([]int, m), make([]bool, 2*m)
	ordered := make([][]int, len(groups))
	index := make(map[string]int) // a key's class
	var classes [][]int
	var key []byte
	for rank := range limit {
		stats.Unrank(ordered, groups, rank)
		nv, ok := t.visitOrder(ordered, visits, flags[:m], flags[m:])
		if !t.symmetric || !ok {
			classes = append(classes, []int{rank})
			continue
		}
		// Varints are prefix-free, so equal keys mean equal sequences.
		key = key[:0]
		for _, s := range visits[:nv] {
			key = binary.AppendVarint(key, int64(t.in.Capacity[s]))
		}
		if c, seen := index[string(key)]; seen {
			classes[c] = append(classes[c], rank)
		} else {
			index[string(key)] = len(classes)
			classes = append(classes, []int{rank})
		}
	}
	return classes
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
	for _, e := range f.nbrs[f.nbrIdx[v]:f.nbrIdx[v+1]] {
		f.affinity[e.v] += e.w
		if !f.selected[e.v] {
			f.pushFrontier(e.v)
		}
	}
}

// Eval evaluates a key class of orders (see SearchOrders), given by their
// ascending ranks, which Fill.Order decodes. It returns the rank of the
// cheapest feasible order, the lowest on a tie, with its placement, which
// it may reuse on its next call, and its cost, or ok == false when no
// order of the class is feasible. It may skip an order that provably
// costs more than another of the class or repeats a lower rank's
// placement.
type Eval func(ranks []int) (rank int, pl []int, cost units.Cost, ok bool)

// SearchOrders is the outer loop of the paper's Algorithm 1, and the
// repository's only group-order search: it evaluates the orders of the
// site groups of t's instance whose lexicographic rank lies in
// [0, limit), with limit clamped to κ!, and returns a copy of the
// cheapest feasible placement with its cost, or ok == false when every
// examined order is infeasible.
//
// Before any fill it puts the ranks into key classes: on a symmetric
// level, the ranks whose orders visit the same capacity sequence, so that
// an evaluator Runs the class's first order and Replays the others (see
// Fill); on other levels, or for an order that visits a site twice, each
// rank alone. The classes alone decide which orders share a fill. Worker w
// of W takes the classes w, w+W, … with its own Fill over t, from the
// package's pool, and the evaluator newEval makes of it, so each key is
// filled once at any worker count (workers ≤ 0 selects GOMAXPROCS, never
// more than the classes; worker 0 runs on the calling goroutine). A
// worker copies out each placement it keeps and hands its Fill back when
// its classes are done, so the evaluator must not outlive the search. The
// reduction keeps the minimum cost and, on a tie, the lowest rank, so the
// result is byte-identical at any worker count. The table stays the
// caller's to release.
func SearchOrders(t *FillTable, limit, workers int, newEval func(*Fill) Eval) (best []int, cost units.Cost, ok bool) {
	limit = min(limit, stats.FactorialInt(len(t.in.Groups)))
	classes := t.keyClasses(limit)
	workers = max(1, min(workerCount(workers), len(classes)))
	results := make([]orderResult, workers)
	search := func(w int) {
		r := &results[w]
		f := NewFill(t)
		defer f.release()
		eval := newEval(f)
		for c := w; c < len(classes); c += workers {
			if rank, pl, cost, ok := eval(classes[c]); ok && r.worse(cost, rank) {
				r.best = append(r.best[:0], pl...)
				r.cost, r.rank, r.found = cost, rank, true
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			search(w)
		}()
	}
	search(0)
	wg.Wait()
	win := &results[0]
	for w := range results[1:] {
		if r := &results[w+1]; r.found && win.worse(r.cost, r.rank) {
			win = r
		}
	}
	return win.best, win.cost, win.found
}

// orderResult is the cheapest feasible order of the classes one worker
// took.
type orderResult struct {
	best  []int
	cost  units.Cost
	rank  int
	found bool
}

// worse reports whether r is empty or loses to an order of the given
// cost and rank.
func (r *orderResult) worse(cost units.Cost, rank int) bool {
	return !r.found || cost < r.cost || cost == r.cost && rank < r.rank
}
