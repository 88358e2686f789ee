package multilevel

import (
	"errors"
	"fmt"
	"runtime"
)

// Options tunes the multilevel solver.
type Options struct {
	// Workers is the parallelism of the coarsest-level order search and of
	// the refinement's proposal phase. Zero selects GOMAXPROCS; any value
	// yields byte-identical placements.
	Workers int
}

// The solver's fixed limits.
const (
	// refinePasses bounds the proposal/commit sweeps per level (early
	// exit when a sweep applies nothing).
	refinePasses = 3
	// maxOrders caps the coarsest-level group-order search: 6!, every
	// order for κ ≤ 6 and a lexicographic prefix beyond.
	maxOrders = 720
	// maxLevels bounds the hierarchy depth.
	maxLevels = 40
)

// coarsenLimits returns the coarsening target for n vertices over m sites,
// max(32, 4·M) — a few super-vertices per site, so the coarsest-level
// order search stays quadratic in a small constant — and the super-vertex
// weight cap ⌈N/target⌉ that spreads N evenly over it.
func coarsenLimits(n, m int) (target, maxWeight int) {
	target = max(32, 4*m)
	return target, (n + target - 1) / target
}

// workerCount resolves a Workers setting: zero or negative selects
// GOMAXPROCS.
func workerCount(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0) //geolint:detsource worker count only; the rank-range and proposal/commit reductions make the result identical at any count
	}
	return workers
}

// Stats reports what the solver did — level counts for the experiment
// report, move/swap counts for tuning.
type Stats struct {
	Levels       int // hierarchy depth including level 0
	CoarsestN    int // vertex count of the coarsest level
	InitialLevel int // level the initial map succeeded at (normally the coarsest)
	Passes       int // refinement sweeps that applied at least one step
	Moves        int // applied single-vertex moves
	Swaps        int // applied pairwise swaps
}

// ErrInfeasible reports that no level admitted a feasible weighted greedy
// fill — the caller should fall back to an exact assignment (e.g. the
// augmenting-path repair over the flat problem).
var ErrInfeasible = errors.New("multilevel: no feasible initial mapping at any level")

// Solve runs the full coarsen → initial-map → uncoarsen+refine pipeline
// and returns a feasible placement for the level-0 graph. The result is
// byte-identical at any Options.Workers value.
func Solve(in *Instance, opt Options) ([]int, Stats, error) {
	var st Stats
	if err := validate(in); err != nil {
		return nil, st, err
	}
	workers := workerCount(opt.Workers)
	h := coarsen(in)
	st.Levels = len(h)
	st.CoarsestN = h[len(h)-1].g.n

	// Initial map at the coarsest level; if its super-vertices are too
	// chunky to pack (tight capacities, adversarial pins), retry one level
	// finer — level 0 has unit weights, where the greedy fill only fails
	// on problems needing augmenting-path repair.
	li := len(h) - 1
	var pl []int
	for {
		lv := h[li]
		var ok bool
		pl, _, ok = SearchOrders(in.Groups, maxOrders, workers, func() Eval {
			return newInitialMapper(in, lv).eval
		})
		if ok {
			break
		}
		if li == 0 {
			return nil, st, ErrInfeasible
		}
		li--
	}
	st.InitialLevel = li

	r := newRefiner(in, workers, refinePasses)
	for l := li; ; l-- {
		r.attach(h[l])
		r.refine(pl)
		if l == 0 {
			break
		}
		pl = project(h[l-1], pl)
	}
	st.Passes = r.totalPasses
	st.Moves = r.moves
	st.Swaps = r.swaps
	return pl, st, nil
}

// Refine polishes an existing feasible level-0 placement in place with the
// multilevel refiner (no coarsening) — the fallback path after an external
// repair, and a reusable local-search primitive.
func Refine(in *Instance, pl []int, opt Options) error {
	if err := validate(in); err != nil {
		return err
	}
	if len(pl) != in.G.n {
		return fmt.Errorf("multilevel: placement has length %d, want %d", len(pl), in.G.n)
	}
	lv := &level{
		g:       in.G,
		pin:     in.Pin,
		allowed: normalizeAllowed(in.Allowed, in.G.n),
	}
	r := newRefiner(in, workerCount(opt.Workers), refinePasses)
	r.attach(lv)
	r.refine(pl)
	return nil
}

// project expands a coarse placement one level finer via the contraction
// map recorded on the finer level.
func project(finer *level, coarse []int) []int {
	pl := make([]int, finer.g.n)
	for v := range pl {
		pl[v] = coarse[finer.toCoarse[v]]
	}
	return pl
}

// validate checks the instance's structural invariants (the caller — core —
// has already validated the semantic ones via Problem.Validate).
func validate(in *Instance) error {
	if in.G == nil || in.G.n == 0 {
		return fmt.Errorf("multilevel: empty graph")
	}
	m := in.M()
	if m == 0 {
		return fmt.Errorf("multilevel: no sites")
	}
	if in.LT == nil || in.BT == nil {
		return fmt.Errorf("multilevel: nil LT/BT matrix")
	}
	if len(in.Pin) != in.G.n {
		return fmt.Errorf("multilevel: pin vector has length %d, want %d", len(in.Pin), in.G.n)
	}
	if len(in.Allowed) != 0 && len(in.Allowed) != in.G.n {
		return fmt.Errorf("multilevel: allowed sets have length %d, want %d", len(in.Allowed), in.G.n)
	}
	if len(in.Groups) == 0 {
		return fmt.Errorf("multilevel: no site groups")
	}
	return nil
}
