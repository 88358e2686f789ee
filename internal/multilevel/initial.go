package multilevel

import (
	"fmt"
	"math"
	"sort"

	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// initialMapper runs the paper's group-order heuristic on the coarsest
// level: the weighted Fill, then a leftover repair for vertices the greedy
// packing stranded. The κ! permutations of the site groups are enumerated
// in lexicographic rank order (capped by maxOrders) and the minimum-cost
// feasible fill wins, ties broken by lowest rank — the same deterministic
// reduction as core.GeoMapper's search, so the choice never depends on
// evaluation order.
type initialMapper struct {
	*Fill
	byWeight []int // vertices in descending weight order (leftover repair)
	ordered  [][]int

	best     []int
	bestCost units.Cost
	found    bool
	examined int
	cap      int
}

func newInitialMapper(in *Instance, lv *level, maxOrders int) *initialMapper {
	g := lv.g
	im := &initialMapper{
		Fill:     newFill(in, lv),
		byWeight: make([]int, g.n),
		ordered:  make([][]int, len(in.Groups)),
		bestCost: units.Cost(math.Inf(1)),
		cap:      maxOrders,
	}
	for v := range im.byWeight {
		im.byWeight[v] = v
	}
	sort.SliceStable(im.byWeight, func(a, b int) bool {
		return g.weight[im.byWeight[a]] > g.weight[im.byWeight[b]]
	})
	return im
}

// run enumerates group orders and returns the best feasible placement. The
// returned slice is freshly allocated.
func (im *initialMapper) run() ([]int, error) {
	k := len(im.in.Groups)
	if k == 0 {
		return nil, fmt.Errorf("multilevel: no site groups")
	}
	total := stats.FactorialInt(k)
	stats.PermutationRange(k, 0, total, func(rank int, perm []int) bool {
		for i, gi := range perm {
			im.ordered[i] = im.in.Groups[gi]
		}
		if im.fill(im.ordered) {
			c := im.in.cost(im.lv.g, im.pl)
			if c < im.bestCost {
				im.bestCost = c
				im.best = append(im.best[:0], im.pl...)
				im.found = true
			}
		}
		im.examined++
		return im.cap <= 0 || im.examined < im.cap
	})
	if !im.found {
		return nil, errInitialInfeasible
	}
	return append([]int(nil), im.best...), nil
}

var errInitialInfeasible = fmt.Errorf("multilevel: no feasible fill at this level")

// fill runs the greedy Fill for an ordered group sequence, then repairs
// the vertices no group could take onto the emptiest admissible site.
// Returns false when some vertex fits nowhere (coarser-level weights can be
// too chunky — the caller then retries one level finer).
func (im *initialMapper) fill(orderedGroups [][]int) bool {
	g := im.lv.g
	im.Run(orderedGroups)
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
			return false
		}
		if site >= 0 {
			im.place(v, site)
		}
	}
	return true
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
