package core

import (
	"fmt"
	"math/rand"
	"slices"

	"geoprocmap/internal/mat"
)

// This file implements the multi-site data-movement constraint extension.
// The paper's model pins a process to exactly one site (the C vector) and
// explicitly defers the generalization: "we only consider the data
// movement constraint on individual sites and leave the extension to
// multiple site constraints in our future work" (Section 3.1). Here a
// process may instead carry a *set* of admissible sites — e.g. "any EU
// region" under data-residency law — via Problem.Allowed. Feasibility
// becomes a bipartite b-matching question. One augmenting-path matcher
// below answers it with two searches: a phased, Hopcroft–Karp-style
// search gives Validate its verdict, and an ordered one-process-at-a-time
// walk builds the placements, so every mapper in this library honors the
// sets.

// AllowedOn reports whether process i may be placed on site s under both
// the pin vector and the allowed-site sets.
func (p *Problem) AllowedOn(i, s int) bool {
	if c := p.Constraint[i]; c != Unconstrained && c != s {
		return false
	}
	if len(p.Allowed) == 0 || len(p.Allowed[i]) == 0 {
		return true
	}
	for _, a := range p.Allowed[i] {
		if a == s {
			return true
		}
	}
	return false
}

// HasSiteSets reports whether any process carries a multi-site restriction.
func (p *Problem) HasSiteSets() bool {
	for _, a := range p.Allowed {
		if len(a) > 0 {
			return true
		}
	}
	return false
}

// validateAllowed checks the allowed-site sets' structural invariants and
// overall feasibility (Hall's condition, decided by the phased search).
func (p *Problem) validateAllowed() error {
	if len(p.Allowed) == 0 {
		return nil
	}
	n, m := p.N(), p.M()
	if len(p.Allowed) != n {
		return fmt.Errorf("core: allowed-site sets have length %d, want %d", len(p.Allowed), n)
	}
	// stamp[s] == i+1 marks site s as listed by process i.
	stamp := make([]int, m)
	for i, sites := range p.Allowed {
		for _, s := range sites {
			if s < 0 || s >= m {
				return fmt.Errorf("core: process %d allows site %d out of range [0,%d)", i, s, m)
			}
			if stamp[s] == i+1 {
				return fmt.Errorf("core: process %d lists site %d twice", i, s)
			}
			stamp[s] = i + 1
		}
		if c := p.Constraint[i]; c != Unconstrained && len(sites) > 0 && stamp[c] != i+1 {
			return fmt.Errorf("core: process %d is pinned to site %d but allows only %v", i, c, sites)
		}
	}
	if k := p.unplaceable(); k > 0 {
		return fmt.Errorf("core: constraints are infeasible: %d of %d processes cannot be placed within the pins, allowed-site sets and capacities", k, n)
	}
	return nil
}

// unplaceable returns how many processes no placement can fit under the
// pins, allowed-site sets and capacities: zero exactly when the
// constraints are feasible. Site lists are views into p, so the search
// allocates only its tables.
func (p *Problem) unplaceable() int {
	n, m := p.N(), p.M()
	all := make([]int, m)
	for s := range all {
		all[s] = s
	}
	sites := func(i int) []int {
		if c := p.Constraint[i]; c != Unconstrained {
			return all[c : c+1]
		}
		if len(p.Allowed) > 0 && len(p.Allowed[i]) > 0 {
			return p.Allowed[i]
		}
		return all
	}
	// A first fit places most processes; pins go first so none loses its
	// slot to a process with alternatives.
	mt := newMatcher(p, mat.NewIntVec(n, Unconstrained), sites, nil)
	var free []int
	fit := func(i int) {
		for _, s := range sites(i) {
			if mt.hasRoom(s) {
				mt.place(i, s)
				return
			}
		}
		free = append(free, i)
	}
	for i, c := range p.Constraint {
		if c != Unconstrained {
			fit(i)
		}
	}
	for i, c := range p.Constraint {
		if c == Unconstrained {
			fit(i)
		}
	}
	return mt.phases(free)
}

// matcher places processes by augmenting paths: a process takes a site
// with free capacity, or relocates an unpinned occupant of a full site
// along a chain that ends at free capacity. It has two searches over the
// same tables. assign places one process at a time, trying sites and
// occupants in caller-chosen orders; each site is tried at most once per
// placed process, so a placement that fails proves no chain exists.
// phases places a whole batch by shortest chains first, which is far
// faster but ignores the orders.
type matcher struct {
	p       *Problem
	pl      Placement
	members [][]int // members[s] lists the processes on site s
	pos     []int   // pos[i] is i's index in members[pl[i]]
	visited []bool
	// sites returns the sites to try for process i, in order; each must
	// admit i.
	sites func(i int) []int
	// order permutes a full site's occupants in place into the order they
	// are tried for relocation; nil keeps placement order.
	order func(occupants []int)
}

// newMatcher indexes the processes pl already places.
func newMatcher(p *Problem, pl Placement, sites func(i int) []int, order func([]int)) *matcher {
	mt := &matcher{p: p, pl: pl, members: make([][]int, p.M()), pos: make([]int, len(pl)),
		visited: make([]bool, p.M()), sites: sites, order: order}
	for i, s := range pl {
		if s != Unconstrained {
			mt.place(i, s)
		}
	}
	return mt
}

// hasRoom reports whether site s has free capacity.
func (mt *matcher) hasRoom(s int) bool { return len(mt.members[s]) < mt.p.Capacity[s] }

// assign places the unplaced process i, relocating others as needed, and
// reports whether it found room.
func (mt *matcher) assign(i int) bool {
	clear(mt.visited)
	return mt.augment(i)
}

func (mt *matcher) augment(i int) bool {
	for _, s := range mt.sites(i) {
		if mt.visited[s] {
			continue
		}
		mt.visited[s] = true
		if mt.hasRoom(s) {
			mt.place(i, s)
			return true
		}
		// Iterate a snapshot: relocations mutate members[s].
		occupants := append([]int(nil), mt.members[s]...)
		if mt.order != nil {
			mt.order(occupants)
		}
		for _, j := range occupants {
			if mt.p.Constraint[j] != Unconstrained {
				continue // pinned occupants cannot move
			}
			mt.unplace(j)
			if mt.augment(j) {
				mt.place(i, s)
				return true
			}
			mt.place(j, s) // restore
		}
	}
	return false
}

func (mt *matcher) place(i, s int) {
	mt.pl[i] = s
	mt.pos[i] = len(mt.members[s])
	mt.members[s] = append(mt.members[s], i)
}

// unplace removes i from its site; the site's last member takes i's slot.
func (mt *matcher) unplace(i int) {
	s := mt.pl[i]
	mem := mt.members[s]
	last := mem[len(mem)-1]
	mem[mt.pos[i]], mt.pos[last] = last, mt.pos[i]
	mt.members[s] = mem[:len(mem)-1]
	mt.pl[i] = Unconstrained
}

// phases places as many of the unplaced processes free as any placement
// extending mt.pl allows, and returns how many stay unplaced. Each phase
// layers the sites by breadth-first distance from the free processes'
// sites, stopping at the first layer with room, then runs a depth-first
// search from each free process along layer+1 edges only, so it finds
// only shortest chains. A pinned occupant needs no test: its only site is
// the one it is on, never the next layer. A phase that finds no room
// proves the rest unplaceable.
func (mt *matcher) phases(free []int) int {
	if len(free) == 0 {
		return 0
	}
	m := mt.p.M()
	ph := &phase{mt: mt, dist: make([]int, m), cursor: make([]int, m),
		start: make([]int, m+1), snap: make([]int, 0, len(mt.pl)), dead: make([]bool, m)}
	var layer, next []int
	for len(free) > 0 {
		for s := range ph.dist {
			ph.dist[s] = -1
		}
		layer = layer[:0]
		for _, i := range free {
			for _, s := range mt.sites(i) {
				if ph.dist[s] < 0 {
					ph.dist[s] = 0
					layer = append(layer, s)
				}
			}
		}
		reached := len(layer)
		ph.final = -1
		for d := 0; len(layer) > 0; d++ {
			if slices.ContainsFunc(layer, mt.hasRoom) {
				ph.final = d
				break
			}
			next = next[:0]
		expand:
			for _, s := range layer {
				for _, j := range mt.members[s] {
					if reached == m {
						break expand // every site has its layer
					}
					for _, t := range mt.sites(j) {
						if ph.dist[t] < 0 {
							ph.dist[t] = d + 1
							next = append(next, t)
							reached++
						}
					}
				}
			}
			layer, next = next, layer
		}
		if ph.final < 0 {
			break
		}
		// Snapshot the occupants: relocations mutate members.
		ph.snap = ph.snap[:0]
		for s := range m {
			ph.start[s] = len(ph.snap)
			ph.snap = append(ph.snap, mt.members[s]...)
		}
		ph.start[m] = len(ph.snap)
		copy(ph.cursor, ph.start)
		clear(ph.dead)
		left := free[:0]
		for _, i := range free {
			if !ph.placeFree(i) {
				left = append(left, i)
			}
		}
		if len(left) == len(free) {
			// A BFS that found room always yields a chain; should that
			// invariant break, return a wrong count rather than spin.
			break
		}
		free = left
	}
	return len(free)
}

// phase is the state of one round of matcher.phases.
type phase struct {
	mt *matcher
	// dist is each site's breadth-first layer, -1 when unreached; final
	// is the first layer with room.
	dist  []int
	final int
	// snap holds every site's occupants at phase start, site s's in
	// snap[start[s]:start[s+1]]; cursor[s] is the next one to try.
	snap, start, cursor []int
	// dead marks sites the search cannot get through this phase.
	dead []bool
}

// placeFree places the free process i on a layer-0 site and reports
// whether a chain made room.
func (ph *phase) placeFree(i int) bool {
	for _, s := range ph.mt.sites(i) {
		if ph.dist[s] == 0 && !ph.dead[s] && ph.vacate(s) {
			ph.mt.place(i, s)
			return true
		}
	}
	return false
}

// vacate makes room on site s, moving one occupant one layer further
// along a chain that ends at a site with room, and reports success.
func (ph *phase) vacate(s int) bool {
	mt := ph.mt
	if mt.hasRoom(s) {
		return true
	}
	for ; ph.dist[s] < ph.final && ph.cursor[s] < ph.start[s+1]; ph.cursor[s]++ {
		j := ph.snap[ph.cursor[s]]
		if mt.pl[j] != s {
			continue // moved away this phase
		}
		for _, t := range mt.sites(j) {
			if ph.dist[t] == ph.dist[s]+1 && !ph.dead[t] && ph.vacate(t) {
				mt.unplace(j)
				mt.place(j, t)
				return true
			}
		}
	}
	ph.dead[s] = true
	return false
}

// constrainedRandomPlacement samples a feasible placement under
// multi-site restrictions: processes are visited in random order, each
// takes a random admissible site with free capacity, and augmenting paths
// relocate earlier processes (tried in random order) when a site is full.
// The walk always succeeds on validated (feasible) problems.
func constrainedRandomPlacement(p *Problem, rng *rand.Rand) (Placement, error) {
	n, m := p.N(), p.M()
	sites := func(i int) []int {
		if c := p.Constraint[i]; c != Unconstrained {
			return []int{c}
		}
		if len(p.Allowed) > 0 && len(p.Allowed[i]) > 0 {
			out := append([]int(nil), p.Allowed[i]...)
			rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
			return out
		}
		return rng.Perm(m)
	}
	shuffle := func(occupants []int) {
		rng.Shuffle(len(occupants), func(a, b int) { occupants[a], occupants[b] = occupants[b], occupants[a] })
	}
	mt := newMatcher(p, mat.NewIntVec(n, Unconstrained), sites, shuffle)
	for _, i := range rng.Perm(n) {
		if !mt.assign(i) {
			return nil, fmt.Errorf("core: could not place process %d under the site restrictions", i)
		}
	}
	return mt.pl, nil
}

// RepairLeftovers places any still-unassigned processes (marked
// Unconstrained in pl) onto admissible sites using augmenting paths,
// relocating only unpinned processes. Sites are tried in ascending order
// and occupants in placement order. It is the fallback the heuristic
// mappers use when greedy packing strands a restricted process, and it is
// complete: it fails only when no placement extends pl's pins.
func RepairLeftovers(p *Problem, pl Placement) error {
	m := p.M()
	sites := func(i int) []int {
		var out []int
		for s := 0; s < m; s++ {
			if p.AllowedOn(i, s) {
				out = append(out, s)
			}
		}
		return out
	}
	mt := newMatcher(p, pl, sites, nil)
	for i, s := range pl {
		if s == Unconstrained && !mt.assign(i) {
			return fmt.Errorf("core: cannot repair placement: process %d has no admissible slot", i)
		}
	}
	return nil
}
