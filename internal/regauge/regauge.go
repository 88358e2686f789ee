// Package regauge closes the calibration loop: a background control
// loop that periodically re-probes the WAN with a reduced-budget
// calibration pass, detects drift against the last published network
// snapshot, publishes refreshed snapshots into the serving Store, and
// re-evaluates cached placements against the new model — migrating only
// when the predicted saving amortizes the migration cost with a safety
// margin (WANify-style runtime re-gauging feeding placement).
//
// The loop is built from the repository's existing deterministic parts:
// calib probes the synthetic cloud against a fault schedule on a
// schedule clock, stats.Scratch.TrimmedMean smooths per-pair estimate
// windows so one noisy pass cannot flap the model, and core.Remap prices each
// migration. All randomness derives from the configured seed plus the
// pass number, and the loop ticks on an injected schedule clock, so a
// full gauging history — published versions, remap decisions, placement
// digests — is byte-identical run to run at any worker count.
//
// Failure handling follows a small mode ladder: a failed pass (probe
// error, or too large a fraction of samples lost) moves the gauger from
// "ok" to "suspect"; MaxFailures consecutive failures escalate to
// "degraded", which freezes publication so a blind gauger cannot push a
// timeout-fallback model over a good one; recovery requires two
// consecutive clean passes ("recovering" in between). After failures
// the next pass is delayed by capped, seeded-jitter backoff on top of
// the base interval.
package regauge

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"geoprocmap/internal/calib"
	"geoprocmap/internal/core"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/service"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// SnapshotPublisher is where the gauger reads the serving model and
// publishes refreshed snapshots. *service.Store satisfies it directly;
// *service.Replicator wraps a store with cluster fan-out so a clustered
// daemon's publications reach every peer version-ordered.
type SnapshotPublisher interface {
	Current() *service.Snapshot
	Publish(*service.Snapshot) (uint64, error)
}

// Gauger modes, in escalation order.
const (
	ModeOK         = "ok"         // last pass clean, publication live
	ModeSuspect    = "suspect"    // at least one recent failed pass
	ModeDegraded   = "degraded"   // MaxFailures consecutive failures; publication frozen
	ModeRecovering = "recovering" // first clean pass after degraded; one more to exit
)

// Pass outcomes.
const (
	OutcomeGaugeFailed = "gauge-failed" // the calibration pass itself failed
	OutcomeFrozen      = "frozen"       // drift seen but publication frozen (degraded/recovering)
	OutcomeSteady      = "steady"       // clean pass, no drift, nothing published
	OutcomePublished   = "published"    // new snapshot published (and targets walked)
)

// Decision actions.
const (
	ActionTriggered  = "triggered"  // remap applied to the target
	ActionCooldown   = "cooldown"   // suppressed: target inside its cooldown window
	ActionUneconomic = "uneconomic" // suppressed: no move beats migration cost × safety
	ActionError      = "error"      // target could not be evaluated
)

// A pass probes each pair probeSpacing apart, retrying a lost sample up
// to probeRetries times, and counts as failed when at least failureBar of
// its samples are lost. windowTrim is the trimmed-mean fraction applied
// to each pair's estimate window: with the default window of 3 it is a
// median, rejecting a single outlier pass.
const (
	probeSpacing = units.Seconds(1)
	probeRetries = 2
	failureBar   = 0.5
	windowTrim   = 0.34
)

// Config assembles a Gauger. Zero values select the noted defaults.
type Config struct {
	// Cloud is the synthetic network the reduced-budget passes probe;
	// required.
	Cloud *netmodel.Cloud
	// Store receives published snapshots; required. A single-node daemon
	// passes its *service.Store directly; a clustered one passes a
	// *service.Replicator so every publication fans out to the fleet.
	Store SnapshotPublisher
	// Source supplies the placements to re-evaluate after a publication
	// and applies remapped results back. nil walks nothing.
	Source TargetSource
	// Faults is the fault schedule the probes run against (nil = healthy).
	Faults *faults.Schedule
	// Seed drives every random draw; pass p uses Seed + p.
	Seed int64

	// Interval is the schedule time between passes (default 30 s).
	Interval units.Seconds
	// Samples is the per-pair probe budget of one pass (default 3 —
	// the reduced budget that makes continuous re-gauging affordable
	// next to a full calibration's Days × SamplesPerDay).
	Samples int

	// DriftThreshold is the relative per-pair change (against the
	// currently published model) that counts as drift (default 0.15).
	DriftThreshold float64
	// Window is how many recent passes each pair's estimate window
	// retains (default 3).
	Window int

	// SafetyFactor is the hysteresis margin: a remap triggers only when
	// predicted saving > migration time × SafetyFactor (default 2).
	SafetyFactor float64
	// Cooldown is the per-target schedule time after a triggered remap
	// during which further remaps are suppressed (default 3 × Interval).
	Cooldown units.Seconds
	// MaxFailures is how many consecutive failed passes escalate the
	// gauger to degraded mode (default 3).
	MaxFailures int

	// Timescale converts schedule seconds to wall time in Run: wall wait
	// = schedule wait / Timescale (default 1; the smoke test runs at a
	// few hundred× so a 30 s gauge interval ticks in wall milliseconds).
	Timescale float64
	// Logf receives one line per pass; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	switch {
	case c.Cloud == nil:
		return c, fmt.Errorf("regauge: Config.Cloud is required")
	case c.Store == nil:
		return c, fmt.Errorf("regauge: Config.Store is required")
	case c.Interval < 0 || c.Cooldown < 0:
		return c, fmt.Errorf("regauge: negative duration in Config")
	case c.Samples < 0 || c.Window < 0 || c.MaxFailures < 0:
		return c, fmt.Errorf("regauge: negative count in Config")
	case c.DriftThreshold < 0 || c.SafetyFactor < 0 || c.Timescale < 0:
		return c, fmt.Errorf("regauge: drift/safety/timescale parameter out of range")
	}
	if c.Interval <= 0 {
		c.Interval = units.Seconds(30)
	}
	if c.Samples == 0 {
		c.Samples = 3
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.15
	}
	if c.Window == 0 {
		c.Window = 3
	}
	if c.SafetyFactor <= 0 {
		c.SafetyFactor = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.Interval.Scale(3)
	}
	if c.MaxFailures == 0 {
		c.MaxFailures = 3
	}
	if c.Timescale <= 0 {
		c.Timescale = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// Decision records how one target fared after a publication.
type Decision struct {
	Pass   int    `json:"pass"`
	Target string `json:"target"`
	Action string `json:"action"`
	// Moved is the number of migrated processes (ActionTriggered only).
	Moved int `json:"moved,omitempty"`
	// SavingSeconds is the predicted horizon-credited saving of the
	// evaluated remap; MigrationSeconds its one-off migration time.
	SavingSeconds    float64 `json:"saving_seconds,omitempty"`
	MigrationSeconds float64 `json:"migration_seconds,omitempty"`
}

// PassResult summarizes one gauge pass.
type PassResult struct {
	Pass int `json:"pass"`
	// At is the schedule time the pass probed at.
	At      units.Seconds `json:"at_seconds"`
	Outcome string        `json:"outcome"`
	Mode    string        `json:"mode"`
	// PublishedVersion is the snapshot version published by this pass
	// (0 when nothing was published).
	PublishedVersion uint64 `json:"published_version,omitempty"`
	// DriftedPairs lists the site pairs whose smoothed estimate moved
	// more than DriftThreshold against the published model.
	DriftedPairs [][2]int `json:"drifted_pairs,omitempty"`
	// DeadSites lists the sites every probe direction failed for.
	DeadSites []int `json:"dead_sites,omitempty"`
	// MaxDrift is the largest relative per-pair change observed.
	MaxDrift float64 `json:"max_drift"`
	// FailedFraction is the fraction of probe samples lost this pass.
	FailedFraction float64 `json:"failed_fraction"`
	// Decisions records the target walk of a publishing pass.
	Decisions []Decision `json:"decisions,omitempty"`
	// NextWait is the schedule time until the next pass (Interval, plus
	// capped jittered backoff after failures).
	NextWait units.Seconds `json:"next_wait_seconds"`
}

// Status is the point-in-time view /healthz and /metrics render.
type Status struct {
	Mode                 string  `json:"mode"`
	Pass                 int     `json:"pass"`
	LastOutcome          string  `json:"last_outcome,omitempty"`
	LastAtSeconds        float64 `json:"last_at_seconds"`
	ConsecutiveFailures  int     `json:"consecutive_failures"`
	GaugeFailures        uint64  `json:"gauge_failures"`
	Published            uint64  `json:"snapshots_published"`
	LastPublishedVersion uint64  `json:"last_published_version,omitempty"`
	RemapsTriggered      uint64  `json:"remaps_triggered"`
	SuppressedCooldown   uint64  `json:"remaps_suppressed_cooldown"`
	SuppressedUneconomic uint64  `json:"remaps_suppressed_uneconomic"`
	MaxDrift             float64 `json:"last_max_drift"`
}

// Gauger is the re-gauging control loop. Step runs one pass and must be
// called from a single goroutine (Run does); Status is safe to call
// concurrently with Step.
type Gauger struct {
	cfg Config
	m   int

	// Step-only state: windows of recent per-pair estimates (row-major
	// k*m+l), the dead set of the last published model, the failure
	// ladder, per-target cooldown deadlines, and the lifetime counters
	// (copied into the locked status view at the end of each pass).
	pass          int
	winLT, winBT  [][]float64
	sm            stats.Scratch // reused by smooth's trimmed means, one window at a time
	lastDead      []int
	consecFails   int
	consecOKs     int
	mode          string
	cooldownUntil map[string]units.Seconds
	published     uint64
	lastVersion   uint64
	remaps        uint64
	supCooldown   uint64
	supUneconomic uint64
	gaugeFailures uint64

	mu     sync.Mutex
	status Status
}

// New builds a Gauger. The initial mode is ok and the drift baseline is
// whatever the Store currently serves.
func New(cfg Config) (*Gauger, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := c.Cloud.M()
	if cur := c.Store.Current(); cur.M() != m {
		return nil, fmt.Errorf("regauge: store serves %d sites, cloud has %d", cur.M(), m)
	}
	g := &Gauger{
		cfg:           c,
		m:             m,
		winLT:         make([][]float64, m*m),
		winBT:         make([][]float64, m*m),
		mode:          ModeOK,
		cooldownUntil: map[string]units.Seconds{},
	}
	g.status = Status{Mode: ModeOK}
	return g, nil
}

// Step runs one gauge pass at schedule time now: probe, smooth, detect
// drift, maybe publish, maybe remap. It returns the pass summary and
// updates the Status view.
func (g *Gauger) Step(now units.Seconds) PassResult {
	g.pass++
	pr := PassResult{Pass: g.pass, At: now, NextWait: g.cfg.Interval}
	passSeed := g.cfg.Seed + int64(g.pass)

	res, failedFrac, err := g.probe(now, passSeed)
	pr.FailedFraction = failedFrac
	if err != nil || failedFrac >= failureBar {
		g.consecFails++
		g.consecOKs = 0
		if g.consecFails >= g.cfg.MaxFailures {
			g.mode = ModeDegraded
		} else {
			g.mode = ModeSuspect
		}
		pr.Outcome = OutcomeGaugeFailed
		pr.Mode = g.mode
		// Jittered, capped backoff on top of the interval keeps a
		// struggling gauger from hammering a broken network in sync with
		// whatever is breaking it. The jitter draws from the pass seed,
		// so the whole schedule stays reproducible.
		rng := stats.NewRand(passSeed)
		pr.NextWait = g.cfg.Interval +
			faults.Backoff(g.consecFails-1, g.cfg.Interval.Scale(0.5), g.cfg.Interval.Scale(4), rng)
		if err != nil {
			g.cfg.Logf("regauge: pass %d failed: %v", g.pass, err)
		} else {
			g.cfg.Logf("regauge: pass %d failed: %.0f%% of samples lost", g.pass, failedFrac*100)
		}
		g.recordStatus(pr, true)
		return pr
	}

	// Clean pass: walk the recovery ladder before deciding anything, so
	// a degraded gauger needs two consecutive clean passes to publish.
	g.consecFails = 0
	g.consecOKs++
	switch g.mode {
	case ModeDegraded:
		g.mode = ModeRecovering
	case ModeRecovering:
		if g.consecOKs >= 2 {
			g.mode = ModeOK
		}
	case ModeSuspect:
		g.mode = ModeOK
	}

	smLT, smBT := g.smooth(res)
	published := g.cfg.Store.Current()
	drifted, worse, maxDrift := g.drift(smLT, smBT, published)
	dead := deadSites(res.Unreachable)
	pr.DriftedPairs = drifted
	pr.DeadSites = dead
	pr.MaxDrift = maxDrift
	pr.Mode = g.mode

	if len(drifted) == 0 && equalInts(dead, g.lastDead) {
		pr.Outcome = OutcomeSteady
		g.recordStatus(pr, false)
		return pr
	}
	if g.mode != ModeOK {
		// Drift seen, but the gauger has not fully recovered: freezing
		// publication here is what keeps a half-blind pass from swapping
		// a timeout-fallback model in for a good one.
		pr.Outcome = OutcomeFrozen
		g.cfg.Logf("regauge: pass %d saw drift (max %.2f) but publication is frozen (%s)", g.pass, maxDrift, g.mode)
		g.recordStatus(pr, false)
		return pr
	}

	version, err := g.publish(smLT, smBT, res)
	if err != nil {
		g.cfg.Logf("regauge: pass %d publish failed: %v", g.pass, err)
		pr.Outcome = OutcomeGaugeFailed
		g.recordStatus(pr, true)
		return pr
	}
	g.lastDead = dead
	pr.PublishedVersion = version
	pr.Outcome = OutcomePublished
	pr.Decisions = g.walkTargets(now, version, dead, worse)
	g.cfg.Logf("regauge: pass %d published v%d (max drift %.2f, %d drifted pairs, %d dead sites, %d decisions)",
		g.pass, version, maxDrift, len(drifted), len(dead), len(pr.Decisions))
	g.recordStatus(pr, false)
	return pr
}

// probe runs the reduced-budget calibration pass and returns the result
// plus the fraction of samples lost.
func (g *Gauger) probe(now units.Seconds, passSeed int64) (*calib.Result, float64, error) {
	res, err := calib.Calibrate(g.cfg.Cloud, calib.Options{
		Days:             1,
		SamplesPerDay:    g.cfg.Samples,
		PairProbeSeconds: probeSpacing,
		MaxRetries:       probeRetries,
		Faults:           g.cfg.Faults,
		Seed:             passSeed,
		Start:            now,
	})
	if err != nil {
		return nil, 1, err
	}
	total := g.m * g.m * g.cfg.Samples
	return res, float64(res.FailedSamples) / float64(total), nil
}

// smooth pushes this pass's estimates into the per-pair windows and
// returns the trimmed-mean smoothed matrices.
func (g *Gauger) smooth(res *calib.Result) (*mat.Matrix, *mat.Matrix) {
	smLT := mat.NewSquare(g.m)
	smBT := mat.NewSquare(g.m)
	for k := 0; k < g.m; k++ {
		for l := 0; l < g.m; l++ {
			i := k*g.m + l
			g.winLT[i] = pushWindow(g.winLT[i], res.LT.At(k, l), g.cfg.Window)
			g.winBT[i] = pushWindow(g.winBT[i], res.BT.At(k, l), g.cfg.Window)
			smLT.Set(k, l, g.sm.TrimmedMean(g.winLT[i], windowTrim))
			smBT.Set(k, l, g.sm.TrimmedMean(g.winBT[i], windowTrim))
		}
	}
	return smLT, smBT
}

// drift compares smoothed estimates against the published model and
// returns the drifted inter-site pairs, the subset that got worse
// (slower or thinner — the pairs remapping can route around), and the
// largest relative change seen.
func (g *Gauger) drift(smLT, smBT *mat.Matrix, published *service.Snapshot) (drifted, worse [][2]int, maxDrift float64) {
	for k := 0; k < g.m; k++ {
		for l := 0; l < g.m; l++ {
			if k == l {
				continue
			}
			relLT := relChange(smLT.At(k, l), published.LT.At(k, l))
			relBT := relChange(smBT.At(k, l), published.BT.At(k, l))
			d := relLT
			if relBT > d {
				d = relBT
			}
			if d > maxDrift {
				maxDrift = d
			}
			if d <= g.cfg.DriftThreshold {
				continue
			}
			pair := [2]int{k, l}
			drifted = append(drifted, pair)
			if smLT.At(k, l) > published.LT.At(k, l) || smBT.At(k, l) < published.BT.At(k, l) {
				worse = append(worse, pair)
			}
		}
	}
	return drifted, worse, maxDrift
}

// publish builds a snapshot from the smoothed matrices and installs it.
func (g *Gauger) publish(smLT, smBT *mat.Matrix, res *calib.Result) (uint64, error) {
	fab := &calib.Result{LT: smLT, BT: smBT, Degraded: res.Degraded}
	snap, err := service.SnapshotFromCalibration(g.cfg.Cloud, fab)
	if err != nil {
		return 0, err
	}
	snap.Source = "regauge"
	return g.cfg.Store.Publish(snap)
}

// walkTargets re-evaluates every cached placement against the freshly
// published snapshot. Placements touching dead sites are evacuated
// unconditionally; everything else passes the cooldown gate and the
// migration-cost hysteresis before a remap is applied.
func (g *Gauger) walkTargets(now units.Seconds, version uint64, dead []int, worse [][2]int) []Decision {
	if g.cfg.Source == nil {
		return nil
	}
	snap := g.cfg.Store.Current()
	var out []Decision
	for _, t := range g.cfg.Source.Targets() {
		if t.Request == nil || t.Result == nil || t.Problem == nil {
			continue
		}
		d := Decision{Pass: g.pass, Target: t.Key}
		pl := core.Placement(t.Result.Placement)
		forced := touchesDead(pl, dead)
		if !forced && now < g.cooldownUntil[t.Key] {
			d.Action = ActionCooldown
			g.supCooldown++
			out = append(out, d)
			continue
		}
		prob, err := t.Problem(snap)
		if err != nil {
			d.Action = ActionError
			g.cfg.Logf("regauge: target %.12s: %v", t.Key, err)
			out = append(out, d)
			continue
		}
		rr, err := g.bestRemap(t, prob, pl, dead, worse)
		if err != nil {
			d.Action = ActionError
			g.cfg.Logf("regauge: target %.12s remap: %v", t.Key, err)
			out = append(out, d)
			continue
		}
		saving := (rr.CostBefore - rr.CostAfter).Scale(core.DefaultHorizonIterations).AsSeconds()
		d.SavingSeconds = saving.Float()
		d.MigrationSeconds = rr.MigrationSeconds.Float()
		uneconomic := len(rr.Migrated) == 0 ||
			(!forced && saving <= rr.MigrationSeconds.Scale(g.cfg.SafetyFactor))
		if uneconomic {
			d.Action = ActionUneconomic
			g.supUneconomic++
			out = append(out, d)
			continue
		}
		remapped := service.NewMapResult(prob, rr.Placement, version, t.Result.Algorithm+"+remap")
		remapped.SolveMillis = t.Result.SolveMillis
		if err := g.cfg.Source.Apply(t, remapped); err != nil {
			d.Action = ActionError
			g.cfg.Logf("regauge: target %.12s apply: %v", t.Key, err)
			out = append(out, d)
			continue
		}
		d.Action = ActionTriggered
		d.Moved = len(rr.Migrated)
		g.remaps++
		g.cooldownUntil[t.Key] = now + g.cfg.Cooldown
		out = append(out, d)
	}
	return out
}

// bestRemap prices the candidate repairs for one placement and returns
// the most promising. Three candidate families compete on saving net of
// migration cost × safety; the caller's hysteresis still gates
// application.
//
// The first candidate is the plain failure-aware remap (dead-site
// evacuation plus greedy per-process degraded moves). When that finds
// no move and degraded pairs exist, whole-site evacuations are priced:
// regional congestion traps the per-process greedy — moving one process
// off a congested site turns its cheap intra-site traffic into
// cross-traffic over the same degraded links, so no single move ever
// pays — while relocating the site's processes together can. Each
// congested site is evacuated by reusing core.Remap with that site
// marked dead; sites hosting a pinned process are skipped (a fabricated
// dead site would release a real pin).
//
// The last candidate is a full re-solve of the target's request against
// the new model, with migration priced as the placement diff's image
// transfers. Remapping alone is a ratchet — it moves processes away
// from trouble but nothing ever moves them home once a peak clears, so
// a placement walks monotonically away from the nominal optimum. The
// re-solve is the return path: after drift subsides it converges back
// to the optimizer's placement whenever the way back is worth the
// migration. It is skipped while sites are dead — a fresh solve knows
// nothing about dead capacity and could place processes there.
func (g *Gauger) bestRemap(t Target, prob *core.Problem, pl core.Placement, dead []int, worse [][2]int) (*core.RemapResult, error) {
	opts := core.RemapOptions{MoveDegraded: true}
	best, err := core.Remap(prob, pl, &faults.Report{DeadSites: dead, DegradedPairs: worse}, opts)
	if err != nil {
		return nil, err
	}
	bestNet := g.netSaving(best)
	if len(best.Migrated) == 0 && len(worse) > 0 {
		isDead := make(map[int]bool, len(dead))
		for _, s := range dead {
			isDead[s] = true
		}
		pinned := make([]bool, prob.M())
		for _, c := range prob.Constraint {
			if c != core.Unconstrained {
				pinned[c] = true
			}
		}
		occupied := make([]bool, prob.M())
		for _, s := range pl {
			occupied[s] = true
		}
		congested := make([]bool, prob.M())
		for _, pair := range worse {
			for _, s := range []int{pair[0], pair[1]} {
				if s >= 0 && s < prob.M() {
					congested[s] = true
				}
			}
		}
		for s := 0; s < prob.M(); s++ {
			if !congested[s] || !occupied[s] || isDead[s] || pinned[s] {
				continue
			}
			evac := append(append([]int{}, dead...), s)
			sort.Ints(evac)
			rr, err := core.Remap(prob, pl, &faults.Report{DeadSites: evac, DegradedPairs: worse}, opts)
			if err != nil {
				// Infeasible evacuation (e.g. not enough surviving
				// capacity) just removes this candidate; it does not fail
				// the walk.
				continue
			}
			if net := g.netSaving(rr); net > bestNet {
				best, bestNet = rr, net
			}
		}
	}
	if len(dead) == 0 {
		if rr := g.resolveCandidate(t, prob, pl); rr != nil {
			if net := g.netSaving(rr); net > bestNet {
				best, bestNet = rr, net
			}
		}
	}
	return best, nil
}

// resolveCandidate re-solves the target's request against the new model
// and prices the switch from the current placement: migration is the
// diff's image transfers, each at the current bandwidth between old and
// new site. Returns nil when the request's solver is unavailable or
// solving fails — the other candidates still stand.
func (g *Gauger) resolveCandidate(t Target, prob *core.Problem, pl core.Placement) *core.RemapResult {
	// One order-search worker: re-solves share the machine with the
	// server's pool, and the count never changes a placement.
	mapper, err := t.Request.Mapper(1)
	if err != nil {
		return nil
	}
	fresh, err := mapper.Map(prob)
	if err != nil {
		return nil
	}
	rr := &core.RemapResult{
		Placement:  fresh,
		CostBefore: prob.Cost(pl),
		CostAfter:  prob.Cost(fresh),
	}
	for i := range pl {
		if fresh[i] == pl[i] {
			continue
		}
		rr.Migrated = append(rr.Migrated, i)
		rr.MigrationSeconds += core.MigrationImageBytes.Over(prob.Bandwidth(pl[i], fresh[i]))
	}
	return rr
}

// netSaving is a candidate's horizon-credited saving net of its
// migration time scaled by the safety factor — the quantity the
// hysteresis gate compares against zero.
func (g *Gauger) netSaving(rr *core.RemapResult) units.Seconds {
	return (rr.CostBefore - rr.CostAfter).Scale(core.DefaultHorizonIterations).AsSeconds() -
		rr.MigrationSeconds.Scale(g.cfg.SafetyFactor)
}

// recordStatus refreshes the concurrent-read Status view after a pass.
func (g *Gauger) recordStatus(pr PassResult, failed bool) {
	if failed {
		g.gaugeFailures++
	}
	if pr.PublishedVersion > 0 {
		g.published++
		g.lastVersion = pr.PublishedVersion
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.status = Status{
		Mode:                 pr.Mode,
		Pass:                 pr.Pass,
		LastOutcome:          pr.Outcome,
		LastAtSeconds:        pr.At.Float(),
		ConsecutiveFailures:  g.consecFails,
		GaugeFailures:        g.gaugeFailures,
		Published:            g.published,
		LastPublishedVersion: g.lastVersion,
		RemapsTriggered:      g.remaps,
		SuppressedCooldown:   g.supCooldown,
		SuppressedUneconomic: g.supUneconomic,
		MaxDrift:             pr.MaxDrift,
	}
}

// Status returns a copy of the current view; safe concurrently with Step.
func (g *Gauger) Status() Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.status
}

// StatusProbe adapts the gauger to service.Server.RegisterStatus: the
// block renders under "regauge" and reports unhealthy while degraded.
func (g *Gauger) StatusProbe() (any, bool) {
	st := g.Status()
	return st, st.Mode != ModeDegraded
}

// Run drives Step on a wall-clock timer until ctx is canceled: the
// schedule clock starts at zero and advances by each pass's NextWait,
// while the wall wait is NextWait / Timescale. The timer+select shape
// (rather than a sleep loop) keeps cancellation immediate on drain.
func (g *Gauger) Run(ctx context.Context) {
	sched := g.cfg.Interval
	timer := time.NewTimer(g.wallWait(g.cfg.Interval))
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		pr := g.Step(sched)
		sched += pr.NextWait
		timer.Reset(g.wallWait(pr.NextWait))
	}
}

func (g *Gauger) wallWait(d units.Seconds) time.Duration {
	return time.Duration(d.Float() / g.cfg.Timescale * float64(time.Second))
}

// pushWindow appends v and keeps the last size entries.
func pushWindow(w []float64, v float64, size int) []float64 {
	w = append(w, v)
	if len(w) > size {
		w = w[len(w)-size:]
	}
	return w
}

// relChange is |a−b| / b with zero-denominator guards: an estimate
// appearing where the model had nothing counts as full drift.
func relChange(a, b float64) float64 {
	if b <= 0 {
		if a <= 0 {
			return 0
		}
		return 1
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// deadSites infers the dead set from a pass's Unreachable matrix: a site
// is dead only when every inter-site probe direction touching it failed
// completely — a single flaky link must not condemn a site.
func deadSites(unreachable *mat.Matrix) []int {
	if unreachable == nil {
		return nil
	}
	m := unreachable.Rows()
	if m < 2 {
		return nil
	}
	var dead []int
	for s := 0; s < m; s++ {
		all := true
		for l := 0; l < m && all; l++ {
			if l == s {
				continue
			}
			if unreachable.At(s, l) < 1 || unreachable.At(l, s) < 1 {
				all = false
			}
		}
		if all {
			dead = append(dead, s)
		}
	}
	return dead
}

// touchesDead reports whether any process sits on a dead site.
func touchesDead(pl core.Placement, dead []int) bool {
	if len(dead) == 0 {
		return false
	}
	isDead := make(map[int]bool, len(dead))
	for _, s := range dead {
		isDead[s] = true
	}
	for _, s := range pl {
		if isDead[s] {
			return true
		}
	}
	return false
}

// equalInts compares two int slices elementwise.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
