package multilevel

import (
	"slices"
	"sort"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/units"
)

// level is one rung of the multilevel hierarchy: a coarsened graph plus the
// per-vertex constraint state at that granularity. toCoarse maps this
// level's vertices to the next-coarser level's ids (nil on the coarsest
// level).
type level struct {
	g        *Graph
	pin      []int   // required site or -1, per vertex
	allowed  [][]int // admissible sites, nil = unrestricted, per vertex
	toCoarse []int
}

// hierarchy is the full coarsening ladder, finest first.
type hierarchy []*level

// coarsen builds the hierarchy: heavy-edge matching with deterministic
// tie-breaking on vertex id, contracting until the graph has at most the
// coarsenLimits target of vertices, matching stalls, or maxLevels is
// reached.
//
// Matching rule: vertices are visited in ascending id order; an unmatched
// vertex u pairs with the unmatched, constraint-compatible neighbor v
// maximizing the scalarized edge weight refLat·msgs + vol/refBW (both
// directions combined), ties broken by lowest v. Compatibility demands
// identical pins (both free, or both pinned to the same site), a non-empty
// intersection of allowed-site sets, and a merged weight within maxW and
// the capacity of some admissible site — so contraction can never
// manufacture an unplaceable super-vertex out of placeable parts.
func coarsen(in *Instance) hierarchy {
	target, maxW := coarsenLimits(in.G.n, in.M())
	l0 := &level{
		g:       in.G,
		pin:     in.Pin,
		allowed: normalizeAllowed(in.Allowed, in.G.n),
	}
	maxCap := 0
	for _, c := range in.Capacity {
		if c > maxCap {
			maxCap = c
		}
	}
	if maxW > maxCap {
		maxW = maxCap
	}
	if maxW < 1 {
		maxW = 1
	}
	h := hierarchy{l0}
	m := &matcher{in: in, ref: in.refWeights(), maxW: maxW}
	for len(h) < maxLevels {
		cur := h[len(h)-1]
		if cur.g.n <= target {
			break
		}
		match, pairs := m.match(cur)
		// Stop when matching stops making real progress: fewer than 2% of
		// vertices paired means the constraint structure (or maxW) has
		// frozen the graph.
		if pairs*50 < cur.g.n {
			break
		}
		next := contract(cur, match)
		h = append(h, next)
	}
	return h
}

// normalizeAllowed returns sorted copies of the allowed sets (nil-padded to
// n entries) so set intersection during contraction can merge linearly.
// With no set at all, up to maxUnitView vertices, it returns the shared
// read-only run of nil sets (see unitWeights).
func normalizeAllowed(allowed [][]int, n int) [][]int {
	if n <= maxUnitView && !slices.ContainsFunc(allowed, func(set []int) bool { return len(set) > 0 }) {
		return noSets[:n:n]
	}
	out := make([][]int, n)
	for i := range out {
		if i < len(allowed) && len(allowed[i]) > 0 {
			s := append([]int(nil), allowed[i]...)
			sort.Ints(s)
			out[i] = s
		}
	}
	return out
}

// matcher carries the scratch of the heavy-edge matching pass.
type matcher struct {
	in   *Instance
	ref  refLink
	maxW int

	score   []units.Cost // scratch: combined edge weight to each candidate
	touched []int        // candidates with a non-zero score this round
}

// match computes a maximal matching of lv's graph under the compatibility
// rules. match[u] = v pairs u and v (symmetric); -1 leaves u a singleton.
// Returns the number of pairs.
func (m *matcher) match(lv *level) ([]int, int) {
	g := lv.g
	n := g.n
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	if cap(m.score) < n {
		m.score = make([]units.Cost, n)
		m.touched = make([]int, 0, n)
	}
	score := m.score[:n]
	pairs := 0
	for u := 0; u < n; u++ {
		if match[u] >= 0 {
			continue
		}
		// Accumulate both directions into a per-candidate score. The
		// touched list makes the reset O(degree) instead of O(n).
		m.touched = m.touched[:0]
		for _, row := range [2][]comm.Edge{g.out(u), g.in(u)} {
			for _, e := range row {
				if score[e.Peer] == 0 {
					m.touched = append(m.touched, e.Peer)
				}
				score[e.Peer] += m.ref.weight(e.Volume, e.Msgs)
			}
		}
		best, bestScore := -1, units.Cost(0)
		for _, v := range m.touched {
			w := score[v]
			score[v] = 0
			if match[v] >= 0 || v == u || w <= 0 {
				continue
			}
			if !m.compatible(lv, u, v) {
				continue
			}
			// Heaviest edge wins; exact ties go to the lowest vertex id so
			// the matching is independent of adjacency-list order.
			if w > bestScore || (w == bestScore && best >= 0 && v < best) {
				best, bestScore = v, w
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
			pairs++
		}
	}
	return match, pairs
}

// compatible reports whether u and v may be contracted into one
// super-vertex without losing a feasible placement of the pair.
func (m *matcher) compatible(lv *level, u, v int) bool {
	if lv.pin[u] != lv.pin[v] {
		return false
	}
	w := lv.g.weight[u] + lv.g.weight[v]
	if w > m.maxW {
		return false
	}
	if p := lv.pin[u]; p >= 0 {
		return w <= m.in.Capacity[p]
	}
	au, av := lv.allowed[u], lv.allowed[v]
	switch {
	case len(au) == 0 && len(av) == 0:
		return true
	case len(au) == 0:
		return fitsSomewhere(av, m.in.Capacity, w)
	case len(av) == 0:
		return fitsSomewhere(au, m.in.Capacity, w)
	}
	// Both restricted: the merged vertex lives on the intersection, which
	// must contain a site big enough for the merged weight.
	i, j := 0, 0
	for i < len(au) && j < len(av) {
		switch {
		case au[i] == av[j]:
			if m.in.Capacity[au[i]] >= w {
				return true
			}
			i++
			j++
		case au[i] < av[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// fitsSomewhere reports whether any of the sites can hold weight w.
func fitsSomewhere(sites []int, capacity []int, w int) bool {
	for _, s := range sites {
		if capacity[s] >= w {
			return true
		}
	}
	return false
}

// contract builds the next-coarser level from a matching: matched pairs and
// singletons become super-vertices numbered in ascending order of their
// lowest member id, directed traffic is aggregated per ordered coarse pair,
// and traffic between merged vertices moves into the self arrays — total
// volume and message counts are conserved exactly.
func contract(lv *level, match []int) *level {
	g := lv.g
	n := g.n
	toCoarse := make([]int, n)
	nc := 0
	for u := 0; u < n; u++ {
		if v := match[u]; v >= 0 && v < u {
			toCoarse[u] = toCoarse[v]
			continue
		}
		toCoarse[u] = nc
		nc++
	}
	lv.toCoarse = toCoarse

	cg := &Graph{
		n:        nc,
		weight:   make([]int, nc),
		selfVol:  make([]float64, nc),
		selfMsgs: make([]float64, nc),
	}
	pin := make([]int, nc)
	allowed := make([][]int, nc)
	// members[c] lists the fine vertices of coarse vertex c in ascending
	// id order (counting sort over toCoarse, which is monotone in the
	// lowest member).
	memberIdx := make([]int, nc+1)
	for _, c := range toCoarse {
		memberIdx[c+1]++
	}
	for c := 0; c < nc; c++ {
		memberIdx[c+1] += memberIdx[c]
	}
	members := make([]int, n)
	cursor := append([]int(nil), memberIdx[:nc]...)
	for u := 0; u < n; u++ {
		c := toCoarse[u]
		members[cursor[c]] = u
		cursor[c]++
	}

	// Aggregate outgoing traffic per coarse vertex with a scatter array.
	accVol := make([]float64, nc)
	accMsgs := make([]float64, nc)
	var touched []int
	outIdx := make([]int, nc+1)
	var out []comm.Edge
	for c := 0; c < nc; c++ {
		touched = touched[:0]
		for mi := memberIdx[c]; mi < memberIdx[c+1]; mi++ {
			u := members[mi]
			cg.weight[c] += g.weight[u]
			cg.selfVol[c] += g.selfVol[u]
			cg.selfMsgs[c] += g.selfMsgs[u]
			for _, e := range g.out(u) {
				cv := toCoarse[e.Peer]
				if cv == c {
					// Edge absorbed by the contraction.
					cg.selfVol[c] += e.Volume
					cg.selfMsgs[c] += e.Msgs
					continue
				}
				if accVol[cv] == 0 && accMsgs[cv] == 0 {
					touched = append(touched, cv)
				}
				accVol[cv] += e.Volume
				accMsgs[cv] += e.Msgs
			}
		}
		sort.Ints(touched)
		for _, cv := range touched {
			out = append(out, comm.Edge{Peer: cv, Volume: accVol[cv], Msgs: accMsgs[cv]})
			accVol[cv] = 0
			accMsgs[cv] = 0
		}
		outIdx[c+1] = len(out)

		// Constraint state: compatibility guarantees identical pins and a
		// usable allowed intersection.
		first := members[memberIdx[c]]
		pin[c] = lv.pin[first]
		set := lv.allowed[first]
		for mi := memberIdx[c] + 1; mi < memberIdx[c+1]; mi++ {
			set = intersectAllowed(set, lv.allowed[members[mi]])
		}
		allowed[c] = set
	}
	adj := comm.NewCSR(outIdx, out)
	cg.adj = &adj
	return &level{g: cg, pin: pin, allowed: allowed}
}

// intersectAllowed merges two sorted allowed sets; nil means unrestricted
// and acts as the identity.
func intersectAllowed(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
