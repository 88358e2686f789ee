// Package core implements the paper's primary contribution: the
// geo-distributed process-mapping problem formulation (Section 3) and the
// Geo-distributed mapping algorithm (Section 4, Algorithm 1).
//
// A Problem instance carries the notation of the paper's Table 4:
//
//	N          number of processes (Comm.N())
//	M          number of sites (LT/BT dimension)
//	CG, AG     communication pattern and message-count matrices (Comm)
//	LT, BT     inter/intra-site latency and bandwidth matrices
//	PC         physical coordinates of each site
//	I          number of physical nodes per site (Capacity)
//	C          constraint vector (Constraint)
//	P          a placement: process → site (Placement)
//
// The optimization objective is Formula 4: minimize Cost(P) subject to the
// data-movement constraints and per-site capacities of Formula 5, where the
// cost of a process pair follows the α–β model of Formula 3:
//
//	f(w_ij, d_kl) = AG(i,j)·LT(k,l) + CG(i,j)/BT(k,l)
package core

import (
	"fmt"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/units"
)

// Unconstrained marks a process free to be mapped anywhere. (The paper
// encodes "no constraint" as 0 with 1-based site numbers; this library uses
// 0-based site indices, so the sentinel is -1.)
const Unconstrained = -1

// Placement maps each process to a site index. It is the paper's vector P.
type Placement = mat.IntVec

// Problem is a geo-distributed process-mapping problem instance.
type Problem struct {
	// Comm is the application communication pattern (CG and AG).
	Comm *comm.Graph
	// LT and BT are the M×M inter/intra-site latency (seconds) and
	// bandwidth (bytes/second) matrices.
	LT, BT *mat.Matrix
	// PC holds the physical coordinates of each site.
	PC []geo.LatLon
	// Capacity is the paper's vector I: physical nodes per site.
	Capacity mat.IntVec
	// Constraint is the paper's vector C: Constraint[i] is the site that
	// process i must be mapped to, or Unconstrained.
	Constraint mat.IntVec
	// Allowed optionally restricts each process to a *set* of admissible
	// sites — the multi-site constraint extension the paper leaves as
	// future work. nil, or an empty set for a process, means no
	// restriction. A pinned process's site must be within its set.
	Allowed [][]int
}

// N returns the number of processes.
func (p *Problem) N() int { return p.Comm.N() }

// M returns the number of sites.
func (p *Problem) M() int { return len(p.Capacity) }

// Validate checks the structural invariants of the problem instance:
// matching dimensions, positive capacities and bandwidths, a feasible
// constraint vector, and total capacity at least N.
func (p *Problem) Validate() error {
	if p.Comm == nil {
		return fmt.Errorf("core: nil communication pattern")
	}
	n, m := p.N(), p.M()
	if n == 0 {
		return fmt.Errorf("core: no processes")
	}
	if m == 0 {
		return fmt.Errorf("core: no sites")
	}
	if p.LT == nil || p.BT == nil {
		return fmt.Errorf("core: nil LT/BT matrix")
	}
	if !p.LT.IsSquare() || p.LT.Rows() != m {
		return fmt.Errorf("core: LT is %d×%d, want %d×%d", p.LT.Rows(), p.LT.Cols(), m, m)
	}
	if !p.BT.IsSquare() || p.BT.Rows() != m {
		return fmt.Errorf("core: BT is %d×%d, want %d×%d", p.BT.Rows(), p.BT.Cols(), m, m)
	}
	if len(p.PC) != m {
		return fmt.Errorf("core: PC has %d coordinates, want %d", len(p.PC), m)
	}
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if p.BT.At(k, l) <= 0 {
				return fmt.Errorf("core: BT(%d,%d) = %g, want > 0", k, l, p.BT.At(k, l))
			}
			if p.LT.At(k, l) < 0 {
				return fmt.Errorf("core: LT(%d,%d) = %g, want >= 0", k, l, p.LT.At(k, l))
			}
		}
	}
	total := 0
	for j, c := range p.Capacity {
		if c <= 0 {
			return fmt.Errorf("core: capacity of site %d is %d, want > 0", j, c)
		}
		total += c
	}
	if total < n {
		return fmt.Errorf("core: total capacity %d < %d processes", total, n)
	}
	if len(p.Constraint) != n {
		return fmt.Errorf("core: constraint vector has length %d, want %d", len(p.Constraint), n)
	}
	pinned := make([]int, m)
	for i, c := range p.Constraint {
		if c == Unconstrained {
			continue
		}
		if c < 0 || c >= m {
			return fmt.Errorf("core: constraint[%d] = %d out of range [0,%d)", i, c, m)
		}
		pinned[c]++
		if pinned[c] > p.Capacity[c] {
			return fmt.Errorf("core: %d processes pinned to site %d exceed capacity %d", pinned[c], c, p.Capacity[c])
		}
	}
	return p.validateAllowed()
}

// CheckPlacement verifies Formula 5 for a candidate placement: every
// process is mapped to a valid site, pinned processes are at their required
// sites ((P−C)∘C = 0), and no site exceeds its capacity
// (count(j, P) ≤ I_j).
func (p *Problem) CheckPlacement(pl Placement) error {
	n, m := p.N(), p.M()
	if len(pl) != n {
		return fmt.Errorf("core: placement has length %d, want %d", len(pl), n)
	}
	load := make([]int, m)
	for i, s := range pl {
		if s < 0 || s >= m {
			return fmt.Errorf("core: placement[%d] = %d out of range [0,%d)", i, s, m)
		}
		load[s]++
	}
	for j := 0; j < m; j++ {
		if load[j] > p.Capacity[j] {
			return fmt.Errorf("core: site %d holds %d processes, capacity %d", j, load[j], p.Capacity[j])
		}
	}
	for i, c := range p.Constraint {
		if c != Unconstrained && pl[i] != c {
			return fmt.Errorf("core: process %d placed at site %d, constrained to %d", i, pl[i], c)
		}
	}
	if len(p.Allowed) > 0 {
		for i := range pl {
			if !p.AllowedOn(i, pl[i]) {
				return fmt.Errorf("core: process %d placed at site %d, allowed only %v", i, pl[i], p.Allowed[i])
			}
		}
	}
	return nil
}

// Latency returns the one-way latency between sites k and l — the typed
// view of the LT matrix entry.
func (p *Problem) Latency(k, l int) units.Seconds { return units.Seconds(p.LT.At(k, l)) }

// Bandwidth returns the bandwidth between sites k and l — the typed view
// of the BT matrix entry.
func (p *Problem) Bandwidth(k, l int) units.BytesPerSec { return units.BytesPerSec(p.BT.At(k, l)) }

// Cost evaluates the paper's Formula 4: the total α–β communication cost of
// a placement. The placement is not re-validated; call CheckPlacement first
// when the placement comes from outside the library. Cost runs once per
// examined order in the κ! search, so it must not allocate.
//
//geolint:allocfree
func (p *Problem) Cost(pl Placement) units.Cost {
	lat, bw := p.CostParts(pl)
	return lat + bw
}

// CostParts splits the cost into its latency term (ΣAG·LT) and bandwidth
// term (ΣCG/BT), which the ablation benchmarks compare.
//
//geolint:allocfree
func (p *Problem) CostParts(pl Placement) (latency, bandwidth units.Cost) {
	n := p.N()
	for i := 0; i < n; i++ {
		si := pl[i]
		for _, e := range p.Comm.Outgoing(i) {
			sj := pl[e.Peer]
			latency += p.Latency(si, sj).Scale(e.Msgs).AsCost()
			bandwidth += units.Bytes(e.Volume).Over(p.Bandwidth(si, sj)).AsCost()
		}
	}
	return latency, bandwidth
}
