// Package multilevel implements a multilevel process-mapping solver:
// coarsen the communication graph by repeated heavy-edge matching, map the
// coarsest graph with the paper's group-order heuristic generalized to
// weighted super-vertices, then uncoarsen level by level while refining the
// placement with a parallel, deterministic move/swap local search.
//
// Fill, the weighted greedy body of the paper's Algorithm 1, is the
// repository's only copy of that body, and SearchOrders, the algorithm's
// outer loop over group orders, is the only order search: core.GeoMapper
// runs both at unit weight on level 0 (NewFill over FromComm), where they
// are the paper's heuristic exactly, and the initial map runs them on the
// coarsest level over the first 720 orders. The two callers differ only in
// the Eval they pass: core repairs site sets and prices with its own
// objective, the initial map repairs stranded super-vertices.
//
// Options carries only Workers, the parallelism of that search and of the
// refinement; the coarsening target, weight cap, level cap, order cap and
// refinement sweeps are constants no caller needs to set.
//
// The scheme follows "Better Process Mapping and Sparse Quadratic
// Assignment" (Schulz & Träff) and "Shared-Memory Hierarchical Process
// Mapping" (Schulz & Woydt): the κ! order search that makes the flat
// heuristic super-polynomial only ever runs on a few×M super-vertices, so
// the end-to-end complexity is dominated by the O(E·M) refinement sweeps —
// linear in the communication pattern for the sparse workloads the paper
// evaluates.
//
// The package deliberately does not import internal/core: core exposes the
// solver as core.MultilevelGeoMapper, so the dependency points the other
// way. All structures here speak plain slices plus the shared comm/mat/
// units/stats vocabulary. Every level's adjacency is a frozen comm.CSR:
// level 0 reads the application's comm.Graph rows in place, and each
// coarser level is built by comm.FromCSR from the rows contraction emits,
// so the package keeps only per-vertex weights and self-traffic of its
// own.
package multilevel

import (
	"geoprocmap/internal/comm"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/units"
)

// Graph is one level of the multilevel hierarchy: a directed
// communication graph over super-vertices, each standing for Weight[v]
// original processes. Its adjacency is a frozen comm CSR — at level 0 the
// application's own comm.Graph rows, at coarser levels the rows contract
// builds — so the refinement hot path walks flat peer-sorted []comm.Edge
// rows in O(degree). Traffic between processes merged into the same
// super-vertex is accumulated in the self arrays so every level charges
// the exact intra-site α–β cost of its projected placement — total
// communication volume is conserved level to level, which
// TestCoarsenConservesVolume asserts.
type Graph struct {
	n      int
	weight []int // processes merged into each vertex (level 0: all 1)
	adj    *comm.CSR

	// Intra-vertex traffic absorbed by contraction: the (volume, msgs)
	// totals of all edges between processes merged into v. Charged at the
	// intra-site rate LT(s,s)/BT(s,s) of the vertex's current site.
	selfVol  []float64
	selfMsgs []float64
}

// out returns v's outgoing edges, ascending by destination.
func (g *Graph) out(v int) []comm.Edge { return g.adj.Out[g.adj.OutIdx[v]:g.adj.OutIdx[v+1]] }

// in returns v's incoming edges, ascending by sender (Peer is the sender).
func (g *Graph) in(v int) []comm.Edge { return g.adj.In[g.adj.InIdx[v]:g.adj.InIdx[v+1]] }

// N returns the number of (super-)vertices.
func (g *Graph) N() int { return g.n }

// Weight returns the number of original processes merged into vertex v.
func (g *Graph) Weight(v int) int { return g.weight[v] }

// TotalVolume returns the total communication volume represented by the
// graph, counting directed edges once plus all absorbed intra-vertex
// traffic. Contraction preserves it exactly.
func (g *Graph) TotalVolume() float64 {
	var t float64
	for _, e := range g.adj.Out {
		t += e.Volume
	}
	for _, v := range g.selfVol {
		t += v
	}
	return t
}

// TotalMsgs is TotalVolume for message counts.
func (g *Graph) TotalMsgs() float64 {
	var t float64
	for _, e := range g.adj.Out {
		t += e.Msgs
	}
	for _, v := range g.selfMsgs {
		t += v
	}
	return t
}

// TotalWeight returns the number of original processes represented.
func (g *Graph) TotalWeight() int {
	t := 0
	for _, w := range g.weight {
		t += w
	}
	return t
}

// FromComm returns the level-0 graph of cg: unit weights, no self traffic,
// and cg's own frozen rows as the adjacency (cg is frozen if it was not).
func FromComm(cg *comm.Graph) *Graph {
	n := cg.N()
	g := &Graph{
		n:        n,
		weight:   make([]int, n),
		adj:      cg.CSR(),
		selfVol:  make([]float64, n),
		selfMsgs: make([]float64, n),
	}
	for v := range g.weight {
		g.weight[v] = 1
	}
	return g
}

// Instance is a mapping problem phrased over a CSR graph: the network
// matrices, per-site capacities, the pin vector (-1 = free), optional
// multi-site restrictions, and the K-means site groups the coarsest-level
// order search permutes. All fields are read-only to the solver.
type Instance struct {
	G        *Graph
	LT, BT   *mat.Matrix
	Capacity []int
	Pin      []int   // per level-0 vertex: required site or -1
	Allowed  [][]int // per level-0 vertex: admissible sites; nil/empty = all
	Groups   [][]int // site groups for the initial-map order search
}

// M returns the number of sites.
func (in *Instance) M() int { return len(in.Capacity) }

// linkCost is the α–β cost of (vol, msgs) over the site pair (k, l) —
// Formula 3 of the paper, identical to core.Problem.Cost's per-edge term.
//
//geolint:allocfree
func (in *Instance) linkCost(k, l int, vol, msgs float64) units.Cost {
	lat := units.Seconds(in.LT.At(k, l))
	bw := units.BytesPerSec(in.BT.At(k, l))
	return (lat.Scale(msgs) + units.Bytes(vol).Over(bw)).AsCost()
}

// cost evaluates the full objective of a placement over graph g (any
// level): directed edges at their site pair plus absorbed intra-vertex
// traffic at the intra-site rate. For the projected placement this equals
// the fine-level objective term for term.
//
//geolint:allocfree
func (in *Instance) cost(g *Graph, pl []int) units.Cost {
	var c units.Cost
	for v := 0; v < g.n; v++ {
		sv := pl[v]
		for _, e := range g.out(v) {
			c += in.linkCost(sv, pl[e.Peer], e.Volume, e.Msgs)
		}
		if g.selfVol[v] != 0 || g.selfMsgs[v] != 0 {
			c += in.linkCost(sv, sv, g.selfVol[v], g.selfMsgs[v])
		}
	}
	return c
}

// Cost exposes the objective of a level-0 placement (for callers that hold
// an Instance but not a core.Problem).
func (in *Instance) Cost(pl []int) units.Cost { return in.cost(in.G, pl) }

// refLink is the reference link the fill and the coarsening matcher price
// traffic on, so a (volume, msgs) pair becomes one scalar commensurate
// with the α–β cost: "heaviest communication" then accounts for both the
// bandwidth and the latency term.
type refLink struct {
	lat units.Seconds
	bw  units.BytesPerSec
}

// weight is the α–β cost of (vol, msgs) on the reference link.
func (r refLink) weight(vol, msgs float64) units.Cost {
	return (r.lat.Scale(msgs) + units.Bytes(vol).Over(r.bw)).AsCost()
}

// refWeights returns the reference link: the mean inter-site latency and
// bandwidth (intra-site for M = 1).
func (in *Instance) refWeights() refLink {
	m := in.M()
	var latSum, bwSum float64
	pairs := 0
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				continue
			}
			latSum += in.LT.At(k, l)
			bwSum += in.BT.At(k, l)
			pairs++
		}
	}
	if pairs == 0 {
		return refLink{units.Seconds(in.LT.At(0, 0)), units.BytesPerSec(in.BT.At(0, 0))}
	}
	return refLink{units.Seconds(latSum / float64(pairs)), units.BytesPerSec(bwSum / float64(pairs))}
}

// allowedOn reports whether a vertex with the given pin and allowed set may
// sit on site s.
func allowedOn(pin int, allowed []int, s int) bool {
	if pin >= 0 {
		return pin == s
	}
	if len(allowed) == 0 {
		return true
	}
	for _, a := range allowed {
		if a == s {
			return true
		}
	}
	return false
}
