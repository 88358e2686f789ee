// Package baselines implements the comparison mapping algorithms of the
// paper's evaluation (Section 5.1):
//
//   - Random: the paper's "Baseline", a uniformly random feasible mapping.
//   - Greedy: the heuristic of Hoefler & Snir (ICS'11) for heterogeneous
//     network architectures — "the task with the largest data volume to
//     transfer is mapped to the machines with the highest total bandwidth
//     of all its associated links". It reasons about bandwidth only, which
//     is why the paper finds it strong on the near-diagonal NPB patterns
//     and weak on K-means/DNN.
//   - MPIPP: the iterative profile-guided placement of Chen et al.
//     (ICS'06), reproduced as random-restart pairwise-exchange descent on
//     the full cost function (O(N³)-flavored, the paper's overhead figure).
//   - MonteCarlo: best-of-K random sampling, used for the paper's solution
//     distribution study (Figures 9 and 10).
//
// All mappers honor the problem's data-movement constraints (pinned
// processes stay pinned) so their outputs remain feasible, but unlike the
// Geo-distributed algorithm they do not otherwise exploit them.
package baselines

import (
	"fmt"
	"math"

	"geoprocmap/internal/core"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// Random is the paper's Baseline mapper.
type Random struct {
	Seed int64
}

// Name implements core.Mapper.
func (r *Random) Name() string { return "Baseline" }

// Map implements core.Mapper.
//
//geolint:deterministic
func (r *Random) Map(p *core.Problem) (core.Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return core.RandomPlacement(p, stats.NewRand(r.Seed))
}

// Greedy is the Hoefler–Snir heuristic for heterogeneous architectures:
// processes are placed in order of their attachment to the already-placed
// set (heaviest total volume first), and each lands on the available
// machine "with the highest total bandwidth of all its associated links" —
// a static per-site score, blind to where the process's partners actually
// sit. The attachment ordering gives it good locality on near-diagonal
// patterns, while the static site choice is what the paper exploits: it
// cannot tell which site a communication cluster should occupy, so it
// falls behind on complex patterns and under data-movement constraints.
type Greedy struct{}

// Name implements core.Mapper.
func (g *Greedy) Name() string { return "Greedy" }

// Map implements core.Mapper.
//
//geolint:deterministic
func (g *Greedy) Map(p *core.Problem) (core.Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, m := p.N(), p.M()
	pl := mat.NewIntVec(n, core.Unconstrained)
	selected := make([]bool, n)
	avail := p.Capacity.Clone()
	remaining := n
	for i, c := range p.Constraint {
		if c != core.Unconstrained {
			pl[i] = c
			selected[i] = true
			avail[c]--
			remaining--
		}
	}

	// Static per-process volume (the quantity Hoefler–Snir order by) and
	// running attachment to the placed set.
	volume := make([]float64, n)
	for i := 0; i < n; i++ {
		var v float64
		p.Comm.Neighbors(i, func(_ int, vol, _ float64) { v += vol })
		volume[i] = v
	}
	attached := make([]float64, n)
	for i := 0; i < n; i++ {
		if !selected[i] {
			continue
		}
		p.Comm.Neighbors(i, func(j int, vol, _ float64) { attached[j] += vol })
	}
	// Static site score: total bandwidth of all the site's links.
	siteBW := make([]float64, m)
	for s := 0; s < m; s++ {
		siteBW[s] = p.BT.RowSum(s) + p.BT.ColSum(s)
	}

	for remaining > 0 {
		// Heaviest attachment to the placed set, total volume breaking
		// ties (and seeding the very first pick).
		best, bestKey := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			key := attached[i]*1e6 + volume[i]
			if key > bestKey {
				best, bestKey = i, key
			}
		}

		// Best remaining machine by static total bandwidth, among the
		// sites this process is admissible on.
		site, bestBW := -1, math.Inf(-1)
		for s := 0; s < m; s++ {
			if avail[s] > 0 && siteBW[s] > bestBW && p.AllowedOn(best, s) {
				site, bestBW = s, siteBW[s]
			}
		}
		if site == -1 {
			if p.HasSiteSets() {
				// Stranded by a multi-site restriction: leave unplaced and
				// repair after the greedy pass.
				selected[best] = true
				remaining--
				continue
			}
			return nil, fmt.Errorf("baselines: greedy ran out of capacity with %d processes left", remaining)
		}
		pl[best] = site
		selected[best] = true
		avail[site]--
		remaining--
		p.Comm.Neighbors(best, func(j int, vol, _ float64) { attached[j] += vol })
	}
	if p.HasSiteSets() {
		if err := core.RepairLeftovers(p, pl); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// MPIPP reproduces Chen et al.'s iterative profile-guided placement: a
// modified heuristic k-way graph-partitioning algorithm that starts from
// random feasible placements and applies pairwise exchanges of unpinned
// processes until no exchange improves the partitioning objective, keeping
// the best restart. Each restart runs core.Problem.Exchange, the same
// sweep GeoMapper's RefinePasses runs, on the edge-cut problem below, so
// an exchange must clear multilevel.RefineTol of the current cut.
//
// Faithfully to the original (which targets SMP clusters and
// multiclusters), the objective is the *generic* weighted edge cut — the
// communication volume crossing partition boundaries — not the
// geo-distributed α–β cost: MPIPP has no notion of which partition should
// land on which site, so partitions keep their index-order site
// assignment. This is exactly the weakness the paper identifies ("MPIPP
// does not consider the special communication pattern matrices" of the
// heterogeneous WAN), and why it achieves a uniform 10–30% improvement
// across workloads at much higher overhead.
type MPIPP struct {
	Seed int64
	// Restarts is the number of random restarts (default 2).
	Restarts int
	// MaxPasses bounds the number of full exchange sweeps per restart
	// (default 3, the bounded refinement schedule of the original tool;
	// raise it for a stronger — and slower — optimizer).
	MaxPasses int
}

// Name implements core.Mapper.
func (m *MPIPP) Name() string { return "MPIPP" }

// Map implements core.Mapper.
//
//geolint:deterministic
func (m *MPIPP) Map(p *core.Problem) (core.Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	restarts := m.Restarts
	if restarts <= 0 {
		restarts = 2
	}
	maxPasses := m.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 3
	}
	cut := uniformCutProblem(p)
	rng := stats.NewRand(m.Seed)
	var best core.Placement
	bestCost := units.Cost(math.Inf(1))
	for r := 0; r < restarts; r++ {
		pl, err := core.RandomPlacement(p, rng)
		if err != nil {
			return nil, err
		}
		if cost := cut.Exchange(pl, maxPasses); cost < bestCost {
			bestCost = cost
			best = pl.Clone()
		}
	}
	return best, nil
}

// uniformCutProblem clones p with a homogeneous network — unit bandwidth
// between partitions, effectively infinite within — so that Cost equals
// the weighted edge cut Chen et al.'s partitioner minimizes.
func uniformCutProblem(p *core.Problem) *core.Problem {
	m := p.M()
	lt := mat.NewSquare(m) // zero latency everywhere
	bt := mat.NewSquare(m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				bt.Set(k, l, 1e18) // intra-partition traffic is free
			} else {
				bt.Set(k, l, 1)
			}
		}
	}
	return &core.Problem{
		Comm:       p.Comm,
		LT:         lt,
		BT:         bt,
		PC:         p.PC,
		Capacity:   p.Capacity,
		Constraint: p.Constraint,
		Allowed:    p.Allowed,
	}
}

// MonteCarlo samples K random feasible placements and keeps the best. Its
// Sample method exposes the full cost distribution for the paper's CDF
// study (Figure 9) and best-of-K curve (Figure 10).
type MonteCarlo struct {
	Seed    int64
	Samples int // number of random placements (default 1000)
}

// Name implements core.Mapper.
func (mc *MonteCarlo) Name() string { return "MonteCarlo" }

// Map implements core.Mapper.
//
//geolint:deterministic
func (mc *MonteCarlo) Map(p *core.Problem) (core.Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := mc.Samples
	if k <= 0 {
		k = 1000
	}
	rng := stats.NewRand(mc.Seed)
	var best core.Placement
	bestCost := units.Cost(math.Inf(1))
	for i := 0; i < k; i++ {
		pl, err := core.RandomPlacement(p, rng)
		if err != nil {
			return nil, err
		}
		if c := p.Cost(pl); c < bestCost {
			bestCost = c
			best = pl
		}
	}
	return best, nil
}

// Sample returns the costs of k random feasible placements.
func (mc *MonteCarlo) Sample(p *core.Problem, k int) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("baselines: sample count %d, want > 0", k)
	}
	rng := stats.NewRand(mc.Seed)
	costs := make([]float64, k)
	for i := 0; i < k; i++ {
		pl, err := core.RandomPlacement(p, rng)
		if err != nil {
			return nil, err
		}
		costs[i] = p.Cost(pl).Float()
	}
	return costs, nil
}

// BestOfK returns, for each k in ks (which must be positive and
// nondecreasing), the minimum cost among the first k of the sampler's
// random placements — the curve of the paper's Figure 10.
func (mc *MonteCarlo) BestOfK(p *core.Problem, ks []int) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("baselines: empty k list")
	}
	prev := 0
	for _, k := range ks {
		if k <= 0 || k < prev {
			return nil, fmt.Errorf("baselines: ks must be positive and nondecreasing, got %v", ks)
		}
		prev = k
	}
	rng := stats.NewRand(mc.Seed)
	out := make([]float64, len(ks))
	best := units.Cost(math.Inf(1))
	drawn := 0
	for idx, k := range ks {
		for drawn < k {
			pl, err := core.RandomPlacement(p, rng)
			if err != nil {
				return nil, err
			}
			if c := p.Cost(pl); c < best {
				best = c
			}
			drawn++
		}
		out[idx] = best.Float()
	}
	return out, nil
}
