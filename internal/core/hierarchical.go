package core

import (
	"fmt"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
)

// HierarchicalGeoMapper implements the recursive form of the paper's
// grouping optimization: "we utilize our algorithm on the new groups and
// recursively apply the proposed algorithm inside each group"
// (Section 4.2). Sites are clustered into κ groups; the groups are treated
// as super-sites and processes are mapped to groups with Algorithm 1; then
// each group's subproblem (its processes over its member sites) is solved
// the same way, recursing until a group is small enough to handle flat.
//
// Compared to the flat GeoMapper — which orders groups but fills the sites
// inside a group only by remaining capacity — the recursion also optimizes
// *which site within a group* each process lands on, which matters once
// deployments grow past a handful of sites.
type HierarchicalGeoMapper struct {
	// Kappa is the group count per level (default 4, max MaxKappa).
	Kappa int
	// Seed drives the K-means initializations at every level.
	Seed int64
	// LeafSites is the largest site count solved flat (default 5, the κ
	// bound the paper recommends).
	LeafSites int
	// Workers is the per-level order-search parallelism, forwarded to
	// every flat GeoMapper the recursion instantiates (0 = GOMAXPROCS,
	// 1 = serial).
	Workers int
}

// Name implements Mapper.
func (h *HierarchicalGeoMapper) Name() string { return "Geo-hierarchical" }

// Map implements Mapper.
//
//geolint:deterministic
func (h *HierarchicalGeoMapper) Map(p *Problem) (Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	kappa := h.Kappa
	if kappa == 0 {
		kappa = 4
	}
	if kappa < 2 || kappa > MaxKappa {
		return nil, fmt.Errorf("core: hierarchical kappa = %d outside [2,%d]", kappa, MaxKappa)
	}
	leaf := h.LeafSites
	if leaf == 0 {
		leaf = 5
	}
	if leaf < 1 {
		return nil, fmt.Errorf("core: LeafSites = %d, want >= 1", leaf)
	}
	return h.mapLevel(p, kappa, leaf, h.Seed)
}

func (h *HierarchicalGeoMapper) mapLevel(p *Problem, kappa, leaf int, seed int64) (Placement, error) {
	if p.M() <= leaf {
		flat := &GeoMapper{Kappa: min(kappa, p.M()), Seed: seed, Workers: h.Workers}
		return flat.Map(p)
	}
	groups, err := GroupSites(p.PC, kappa, seed)
	if err != nil {
		return nil, err
	}
	if len(groups) < 2 {
		// Clustering failed to split (e.g. identical coordinates); fall
		// back to the flat algorithm, whose grouped order search still
		// works for any M.
		flat := &GeoMapper{Kappa: kappa, Seed: seed, Workers: h.Workers}
		return flat.Map(p)
	}

	super, err := buildSuperProblem(p, groups)
	if err != nil {
		return nil, err
	}
	flat := &GeoMapper{Kappa: min(kappa, len(groups)), Seed: seed, Workers: h.Workers}
	groupOf, err := flat.Map(super)
	if err != nil {
		return nil, err
	}

	// Solve each group's subproblem recursively.
	out := make(Placement, p.N())
	for gi, members := range groups {
		var procs []int
		for i, g := range groupOf {
			if g == gi {
				procs = append(procs, i)
			}
		}
		if len(procs) == 0 {
			continue
		}
		sub, err := buildSubProblem(p, procs, members)
		if err != nil || sub.Validate() != nil {
			// The group-level assignment can violate a within-group
			// allowed-set Hall condition; retreat to the flat algorithm on
			// the whole instance, which handles it via repair.
			fallback := &GeoMapper{Kappa: kappa, Seed: seed, Workers: h.Workers}
			return fallback.Map(p)
		}
		subPl, err := h.mapLevel(sub, kappa, leaf, seed+int64(gi)+1)
		if err != nil {
			return nil, err
		}
		for local, proc := range procs {
			out[proc] = members[subPl[local]]
		}
	}
	if err := p.CheckPlacement(out); err != nil {
		return nil, fmt.Errorf("core: hierarchical mapping produced infeasible placement: %w", err)
	}
	return out, nil
}

// buildSuperProblem aggregates sites into group-level super-sites: summed
// capacities, mean pairwise latency/bandwidth, centroid coordinates, and
// group-projected constraints.
func buildSuperProblem(p *Problem, groups [][]int) (*Problem, error) {
	m := p.M()
	k := len(groups)
	siteGroup := make([]int, m)
	for gi, members := range groups {
		for _, s := range members {
			siteGroup[s] = gi
		}
	}
	lt := mat.NewSquare(k)
	bt := mat.NewSquare(k)
	pc := make([]geo.LatLon, k)
	capacity := make(mat.IntVec, k)
	for a := 0; a < k; a++ {
		var lat, lon float64
		for _, s := range groups[a] {
			capacity[a] += p.Capacity[s]
			lat += p.PC[s].Lat
			lon += p.PC[s].Lon
		}
		pc[a] = geo.LatLon{Lat: lat / float64(len(groups[a])), Lon: lon / float64(len(groups[a]))}
		for b := 0; b < k; b++ {
			var latSum, bwSum float64
			pairs := 0
			for _, sa := range groups[a] {
				for _, sb := range groups[b] {
					latSum += p.LT.At(sa, sb)
					bwSum += p.BT.At(sa, sb)
					pairs++
				}
			}
			lt.Set(a, b, latSum/float64(pairs))
			bt.Set(a, b, bwSum/float64(pairs))
		}
	}
	constraint := make(mat.IntVec, p.N())
	var allowed [][]int
	if p.HasSiteSets() {
		allowed = make([][]int, p.N())
	}
	for i := range constraint {
		if c := p.Constraint[i]; c != Unconstrained {
			constraint[i] = siteGroup[c]
		} else {
			constraint[i] = Unconstrained
		}
		if allowed != nil && len(p.Allowed[i]) > 0 {
			seen := map[int]bool{}
			for _, s := range p.Allowed[i] {
				g := siteGroup[s]
				if !seen[g] {
					seen[g] = true
					allowed[i] = append(allowed[i], g)
				}
			}
		}
	}
	super := &Problem{
		Comm:       p.Comm,
		LT:         lt,
		BT:         bt,
		PC:         pc,
		Capacity:   capacity,
		Constraint: constraint,
		Allowed:    allowed,
	}
	if err := super.Validate(); err != nil {
		return nil, fmt.Errorf("core: group-level problem invalid: %w", err)
	}
	return super, nil
}

// buildSubProblem restricts the instance to one group: the given processes
// over the given member sites, with the communication pattern projected
// onto the kept processes (traffic to processes outside the group is
// dropped — their placement is already fixed at the group level, and the
// sub-decision cannot change inter-group link choices under the mean-link
// model).
func buildSubProblem(p *Problem, procs, members []int) (*Problem, error) {
	localProc := make(map[int]int, len(procs))
	for li, pi := range procs {
		localProc[pi] = li
	}
	localSite := make(map[int]int, len(members))
	for li, s := range members {
		localSite[s] = li
	}
	sub := &Problem{
		Comm:       projectGraph(p, procs, localProc),
		LT:         submatrix(p.LT, members),
		BT:         submatrix(p.BT, members),
		PC:         make([]geo.LatLon, len(members)),
		Capacity:   make(mat.IntVec, len(members)),
		Constraint: make(mat.IntVec, len(procs)),
	}
	for li, s := range members {
		sub.PC[li] = p.PC[s]
		sub.Capacity[li] = p.Capacity[s]
	}
	var allowed [][]int
	for li, pi := range procs {
		if c := p.Constraint[pi]; c != Unconstrained {
			ls, ok := localSite[c]
			if !ok {
				return nil, fmt.Errorf("core: process %d pinned outside its group", pi)
			}
			sub.Constraint[li] = ls
		} else {
			sub.Constraint[li] = Unconstrained
		}
		if p.HasSiteSets() && len(p.Allowed[pi]) > 0 {
			var local []int
			for _, s := range p.Allowed[pi] {
				if ls, ok := localSite[s]; ok {
					local = append(local, ls)
				}
			}
			if len(local) == 0 {
				return nil, fmt.Errorf("core: process %d has no admissible site in its group", pi)
			}
			if allowed == nil {
				allowed = make([][]int, len(procs))
			}
			allowed[li] = local
		}
	}
	sub.Allowed = allowed
	return sub, nil
}

func submatrix(m *mat.Matrix, idx []int) *mat.Matrix {
	out := mat.NewSquare(len(idx))
	for a, ia := range idx {
		for b, ib := range idx {
			out.Set(a, b, m.At(ia, ib))
		}
	}
	return out
}

// projectGraph keeps only traffic among the chosen processes.
func projectGraph(p *Problem, procs []int, localProc map[int]int) *comm.Graph {
	g := comm.NewGraph(len(procs))
	for li, pi := range procs {
		for _, e := range p.Comm.Outgoing(pi) {
			if lj, ok := localProc[e.Peer]; ok {
				g.AddTraffic(li, lj, e.Volume, e.Msgs)
			}
		}
	}
	return g
}
