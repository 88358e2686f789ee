package core

import (
	"fmt"
	"sort"

	"geoprocmap/internal/faults"
	"geoprocmap/internal/multilevel"
	"geoprocmap/internal/units"
)

// RemapOptions tunes failure-aware remapping.
type RemapOptions struct {
	// ImageBytes is the per-process migration payload — the checkpoint
	// image restored at the destination site (default 64 MB).
	ImageBytes units.Bytes
	// MoveDegraded also evacuates processes from degraded (but live) sites
	// when the α–β cost saved over HorizonIterations amortizes the move's
	// migration time. Dead-site evacuation is always performed.
	MoveDegraded bool
	// HorizonIterations is the number of future application iterations a
	// degraded-site move's cost saving is credited over (default 100).
	HorizonIterations float64
}

func (o RemapOptions) withDefaults() RemapOptions {
	if o.ImageBytes <= 0 {
		o.ImageBytes = units.Bytes(64 << 20)
	}
	if o.HorizonIterations <= 0 {
		o.HorizonIterations = 100
	}
	return o
}

// RemapResult describes a failure-aware remapping.
type RemapResult struct {
	// Placement is the repaired mapping: identical to the stale one except
	// for the migrated processes.
	Placement Placement
	// Migrated lists the moved processes in migration order.
	Migrated []int
	// MigrationSeconds is the total checkpoint-transfer time of the moves,
	// each at the bandwidth between the old and new site (restores from a
	// dead site read the checkpoint replica at the same region, so the
	// stale BT row still prices the transfer).
	MigrationSeconds units.Seconds
	// CostBefore and CostAfter are the problem's α–β costs of the stale
	// and repaired placements. CostBefore prices dead-site traffic with
	// the pre-fault matrices — an optimistic floor, since that traffic
	// would in reality never complete.
	CostBefore, CostAfter units.Cost
}

// Remap repairs a placement after faults: every process on a dead site is
// migrated to a surviving site, chosen greedily (heaviest communicators
// first, each to the live site minimizing its marginal α–β cost against the
// rest of the placement), honoring the constraint vector, the per-process
// Allowed sets, and the surviving capacities. Constraints pinning a process
// to a dead site are unsatisfiable and are released for the migration. A
// victim the greedy pass strands — every admissible live site already full
// — is placed by RepairLeftovers' augmenting paths, which may also relocate
// an unpinned survivor; every such move is counted as a migration. With
// opt.MoveDegraded set, processes on degraded sites (sites touching a
// degraded pair in the report) are also moved when the saving amortizes the
// migration.
//
// The report's DeadSites and DegradedPairs drive the decision; a nil or
// fault-free report returns the placement unchanged.
//
//geolint:deterministic
func Remap(p *Problem, current Placement, rep *faults.Report, opt RemapOptions) (*RemapResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.CheckPlacement(current); err != nil {
		return nil, fmt.Errorf("core: stale placement invalid: %w", err)
	}
	o := opt.withDefaults()
	n, m := p.N(), p.M()
	res := &RemapResult{
		Placement:  append(Placement(nil), current...),
		CostBefore: p.Cost(current),
	}
	if rep == nil || rep.Empty() {
		res.CostAfter = res.CostBefore
		return res, nil
	}
	dead := make([]bool, m)
	for _, k := range rep.DeadSites {
		if k < 0 || k >= m {
			return nil, fmt.Errorf("core: dead site %d out of range [0,%d)", k, m)
		}
		dead[k] = true
	}
	// live is p after the faults: dead sites hold nothing and pins to them
	// are released.
	live := *p
	live.Capacity = p.Capacity.Clone()
	live.Constraint = p.Constraint.Clone()
	liveCap := 0
	for k := 0; k < m; k++ {
		if dead[k] {
			live.Capacity[k] = 0
		}
		liveCap += live.Capacity[k]
	}
	if liveCap < n {
		return nil, fmt.Errorf("core: %d processes exceed surviving capacity %d", n, liveCap)
	}
	for i, c := range live.Constraint {
		if c != Unconstrained && dead[c] {
			live.Constraint[i] = Unconstrained
		}
	}

	// Victims leave their sites; everyone else stays and claims their slot.
	var victims []int
	avail := live.Capacity.Clone()
	for i, s := range res.Placement {
		if dead[s] {
			victims = append(victims, i)
		} else {
			avail[s]--
		}
	}
	if len(victims) == 0 && !o.MoveDegraded {
		res.CostAfter = res.CostBefore
		return res, nil
	}
	// Heaviest communicators first: they dominate the cost, so they get
	// first pick of the surviving slots (the same greedy order the
	// baselines use). A stranded victim stays priced at its dead site until
	// the greedy pass ends.
	sort.SliceStable(victims, func(a, b int) bool {
		return p.Comm.Quantity(victims[a]) > p.Comm.Quantity(victims[b])
	})
	in := live.instance(nil)
	var stranded []int
	for _, i := range victims {
		j := bestLiveSite(&live, in, res.Placement, i, dead, avail)
		if j == -1 {
			stranded = append(stranded, i)
			continue
		}
		res.Placement[i] = j
		avail[j]--
	}
	if len(stranded) > 0 {
		for _, i := range stranded {
			res.Placement[i] = Unconstrained
		}
		if err := RepairLeftovers(&live, res.Placement); err != nil {
			return nil, fmt.Errorf("core: evacuation infeasible: %w", err)
		}
		for k := range avail {
			avail[k] = live.Capacity[k]
		}
		for _, s := range res.Placement {
			avail[s]--
		}
	}
	migrate := func(i int) {
		res.MigrationSeconds += o.ImageBytes.Over(p.Bandwidth(current[i], res.Placement[i]))
		res.Migrated = append(res.Migrated, i)
	}
	for _, i := range victims {
		migrate(i)
	}
	for i, s := range current {
		if !dead[s] && res.Placement[i] != s {
			migrate(i) // relocated by the repair
		}
	}

	if o.MoveDegraded {
		degradedSite := make([]bool, m)
		for _, pair := range rep.DegradedPairs {
			for _, k := range []int{pair[0], pair[1]} {
				if k >= 0 && k < m && !dead[k] {
					degradedSite[k] = true
				}
			}
		}
		for i := 0; i < n; i++ {
			s := res.Placement[i]
			if !degradedSite[s] || p.Constraint[i] == s {
				continue
			}
			j := bestLiveSite(&live, in, res.Placement, i, dead, avail)
			if j == -1 || j == s {
				continue
			}
			saving := -in.MoveDelta(res.Placement, i, j)
			migration := o.ImageBytes.Over(p.Bandwidth(s, j))
			// The per-iteration α–β saving is credited over the horizon and
			// weighed against the one-off migration time — an explicit
			// Cost→Seconds crossing, since both sides are durations here.
			if saving.Scale(o.HorizonIterations).AsSeconds() <= migration {
				continue
			}
			res.MigrationSeconds += migration
			avail[s]++
			avail[j]--
			res.Placement[i] = j
			res.Migrated = append(res.Migrated, i)
		}
	}

	if err := live.CheckPlacement(res.Placement); err != nil {
		return nil, fmt.Errorf("core: remap produced invalid placement: %w", err)
	}
	res.CostAfter = p.Cost(res.Placement)
	return res, nil
}

// bestLiveSite returns the surviving site with free capacity that admits
// process i in the live problem and minimizes the α–β cost change of
// moving i there, priced by in.MoveDelta against the current placement
// (dead-site peers included — they are priced like any other until their
// own migration fixes them), or -1 when there is none.
func bestLiveSite(live *Problem, in *multilevel.Instance, pl Placement, i int, dead []bool, avail []int) int {
	best, bestCost := -1, units.Cost(0)
	for j := 0; j < live.M(); j++ {
		if dead[j] || (avail[j] <= 0 && pl[i] != j) || !live.AllowedOn(i, j) {
			continue
		}
		c := in.MoveDelta(pl, i, j)
		if best == -1 || c < bestCost {
			best, bestCost = j, c
		}
	}
	return best
}
