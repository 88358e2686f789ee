package multilevel

import (
	"sort"

	"geoprocmap/internal/units"
)

// initialMapper is the initial map's evaluator for SearchOrders on one
// level, normally the coarsest: the weighted Fill, then a leftover repair
// for vertices the greedy packing stranded.
type initialMapper struct {
	*Fill
	byWeight []int // vertices in descending weight order (leftover repair)
}

// newInitialMapper returns the initial map's evaluator around f, a Fill
// of the level it maps.
func newInitialMapper(f *Fill) *initialMapper {
	g := f.lv.g
	im := &initialMapper{
		Fill:     f,
		byWeight: make([]int, g.n),
	}
	for v := range im.byWeight {
		im.byWeight[v] = v
	}
	sort.SliceStable(im.byWeight, func(a, b int) bool {
		return g.weight[im.byWeight[a]] > g.weight[im.byWeight[b]]
	})
	return im
}

// eval is the initial map's Eval: it fills the class's first order,
// replays the others, keeps the first strict minimum, and replays it
// again if a later order ran after.
func (im *initialMapper) eval(ranks []int) (int, []int, units.Cost, bool) {
	best, bestCost := -1, units.Cost(0)
	for i, r := range ranks {
		if cost, ok := im.run(r, i > 0); ok && (best < 0 || cost < bestCost) {
			best, bestCost = r, cost
		}
	}
	if best >= 0 && best != ranks[len(ranks)-1] {
		im.run(best, true)
	}
	return best, im.pl, bestCost, best >= 0
}

// run runs the greedy Fill for the order of the given rank, or replays
// the last Run onto it, repairs the vertices no group could take onto
// the emptiest admissible site, and prices the result on the level's
// graph. The order is infeasible when some vertex fits nowhere
// (coarser-level weights can be too chunky — Solve then retries one
// level finer).
func (im *initialMapper) run(rank int, replay bool) (units.Cost, bool) {
	g := im.lv.g
	if ordered := im.Order(rank); replay {
		im.Replay(ordered)
	} else {
		im.Run(ordered)
	}
	// Leftover repair: heaviest vertices first onto the admissible site
	// with the most remaining room; when every admissible site is full,
	// try a one-step displacement before giving up.
	for _, v := range im.byWeight {
		if im.selected[v] {
			continue
		}
		site, bestAvail := -1, g.weight[v]-1
		for s := 0; s < im.in.M(); s++ {
			if im.avail[s] > bestAvail && allowedOn(im.lv.pin[v], im.lv.allowed[v], s) {
				site, bestAvail = s, im.avail[s]
			}
		}
		if site == -1 && !im.displace(v) {
			return 0, false
		}
		if site >= 0 {
			im.place(v, site)
		}
	}
	return im.in.cost(g, im.pl), true
}

// displace makes room for a stranded vertex v by relocating one unpinned
// resident of an admissible site to another site with headroom — a depth-2
// augmenting step. Restricted vertices are stranded when unrestricted ones
// filled their sites greedily; one relocation resolves the common case,
// and the level-retry ladder (plus the caller's exact repair fallback)
// covers the rest. The scan order is fully deterministic.
func (im *initialMapper) displace(v int) bool {
	g := im.lv.g
	w := g.weight[v]
	for s := 0; s < im.in.M(); s++ {
		if !allowedOn(im.lv.pin[v], im.lv.allowed[v], s) {
			continue
		}
		for _, u := range im.members[s] {
			if im.lv.pin[u] >= 0 {
				continue
			}
			if im.avail[s]+g.weight[u] < w {
				continue
			}
			for s2 := 0; s2 < im.in.M(); s2++ {
				if s2 == s || im.avail[s2] < g.weight[u] {
					continue
				}
				if !allowedOn(im.lv.pin[u], im.lv.allowed[u], s2) {
					continue
				}
				im.unplace(u, s)
				im.place(u, s2)
				im.place(v, s)
				return true
			}
		}
	}
	return false
}

// unplace removes u from site s (bookkeeping inverse of Fill.place).
func (im *initialMapper) unplace(u, s int) {
	im.avail[s] += im.lv.g.weight[u]
	mem := im.members[s]
	for i, x := range mem {
		if x == u {
			copy(mem[i:], mem[i+1:])
			im.members[s] = mem[:len(mem)-1]
			break
		}
	}
}
