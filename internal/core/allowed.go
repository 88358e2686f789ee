package core

import (
	"fmt"
	"math/rand"

	"geoprocmap/internal/flow"
	"geoprocmap/internal/mat"
)

// This file implements the multi-site data-movement constraint extension.
// The paper's model pins a process to exactly one site (the C vector) and
// explicitly defers the generalization: "we only consider the data
// movement constraint on individual sites and leave the extension to
// multiple site constraints in our future work" (Section 3.1). Here a
// process may instead carry a *set* of admissible sites — e.g. "any EU
// region" under data-residency law — via Problem.Allowed. Feasibility
// becomes a bipartite b-matching question, decided with max-flow
// (internal/flow); placements come from the one augmenting-path matcher
// below, and every mapper in this library honors the sets.

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
// overall feasibility (Hall's condition via max-flow).
func (p *Problem) validateAllowed() error {
	if len(p.Allowed) == 0 {
		return nil
	}
	n, m := p.N(), p.M()
	if len(p.Allowed) != n {
		return fmt.Errorf("core: allowed-site sets have length %d, want %d", len(p.Allowed), n)
	}
	for i, sites := range p.Allowed {
		seen := map[int]bool{}
		for _, s := range sites {
			if s < 0 || s >= m {
				return fmt.Errorf("core: process %d allows site %d out of range [0,%d)", i, s, m)
			}
			if seen[s] {
				return fmt.Errorf("core: process %d lists site %d twice", i, s)
			}
			seen[s] = true
		}
		if c := p.Constraint[i]; c != Unconstrained && len(sites) > 0 && !seen[c] {
			return fmt.Errorf("core: process %d is pinned to site %d but allows only %v", i, c, sites)
		}
	}
	return p.feasibleAssignment()
}

// feasibleAssignment reports whether some placement satisfies pins,
// allowed sets and capacities: nil when one exists, an error otherwise.
func (p *Problem) feasibleAssignment() error {
	n := p.N()
	allowed := make([][]int, n)
	for i := 0; i < n; i++ {
		switch {
		case p.Constraint[i] != Unconstrained:
			allowed[i] = []int{p.Constraint[i]}
		case len(p.Allowed) > 0:
			allowed[i] = p.Allowed[i]
		}
	}
	a := &flow.AssignmentProblem{Items: n, Capacity: p.Capacity, Allowed: allowed}
	if err := a.Solve(); err != nil {
		return fmt.Errorf("core: constraints are infeasible: %w", err)
	}
	return nil
}

// matcher places processes one at a time by augmenting paths: a process
// takes a site with free capacity, or relocates an unpinned occupant of a
// full site along a chain that ends at free capacity. Each site is tried at
// most once per placed process, so a placement that fails proves no chain
// exists. Callers choose only the orders in which sites and occupants are
// tried.
type matcher struct {
	p       *Problem
	pl      Placement
	load    []int
	members [][]int
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
	m := p.M()
	mt := &matcher{p: p, pl: pl, load: make([]int, m), members: make([][]int, m),
		visited: make([]bool, m), sites: sites, order: order}
	for i, s := range pl {
		if s != Unconstrained {
			mt.load[s]++
			mt.members[s] = append(mt.members[s], i)
		}
	}
	return mt
}

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
		if mt.load[s] < mt.p.Capacity[s] {
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
	mt.load[s]++
	mt.members[s] = append(mt.members[s], i)
}

func (mt *matcher) unplace(i int) {
	s := mt.pl[i]
	mt.load[s]--
	mem := mt.members[s]
	for idx, j := range mem {
		if j == i {
			mem[idx] = mem[len(mem)-1]
			mt.members[s] = mem[:len(mem)-1]
			break
		}
	}
	mt.pl[i] = Unconstrained
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
