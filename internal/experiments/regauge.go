package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/core"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/regauge"
	"geoprocmap/internal/service"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// RegaugeScenario configures one closed-loop re-gauging replay: a day of
// a fault preset, a gauger ticking on the schedule clock, and a window-
// by-window comparison of the stale initial placement against the
// continuously re-gauged one. Zero values select the noted defaults.
type RegaugeScenario struct {
	// Preset names the fault schedule (default "DiurnalDrift").
	Preset string
	// N is the process count (default 64) and App the workload (default
	// "CG" — a workload whose cross-site traffic is heavy enough that a
	// regional congestion peak actually moves the cost, and whose
	// measured critical path tracks the α–β objective, so an economic
	// remap also shows up in the replayed comm time. The NPB stencils end
	// up so tightly colocated that a peak barely touches them, while the
	// parameter-server workloads replay through a synchronization
	// bottleneck the sum-cost objective does not see).
	N   int
	App string
	// DaySeconds is the replayed horizon (default 960 — four DiurnalDrift
	// cycles).
	DaySeconds float64
	// Seed drives everything; Workers is the geo mapper's order-search
	// parallelism (byte-identical results at any value).
	Seed    int64
	Workers int
}

func (s RegaugeScenario) withDefaults() RegaugeScenario {
	if s.Preset == "" {
		s.Preset = "DiurnalDrift"
	}
	if s.N == 0 {
		s.N = 64
	}
	if s.App == "" {
		s.App = "CG"
	}
	if s.DaySeconds <= 0 {
		s.DaySeconds = 960
	}
	return s
}

// scenarioInterval is the gauge interval of a scenario, in schedule
// seconds; the gauger's drift threshold, cooldown and safety factor are
// its defaults.
const scenarioInterval = 30.0

// RegaugeOutcome is the full deterministic record of one scenario run.
type RegaugeOutcome struct {
	Preset  string
	Windows int
	// Passes is the gauger's pass-by-pass record.
	Passes []regauge.PassResult
	// Published counts automatic snapshot publications; the remap
	// counters split the hysteresis outcomes.
	Published            int
	RemapsTriggered      int
	SuppressedCooldown   int
	SuppressedUneconomic int
	// StaleComm and RemappedComm are the per-window single-iteration
	// communication times (seconds) of the frozen initial placement and
	// the continuously re-gauged one.
	StaleComm    []float64
	RemappedComm []float64
	// MigrationSeconds totals the checkpoint-transfer time of every
	// triggered remap.
	MigrationSeconds float64
	// InitialDigest and FinalDigest are the placement digests before and
	// after the day.
	InitialDigest, FinalDigest string
}

// Percentile digests the per-window samples (p in [0,100]).
func (o *RegaugeOutcome) StalePercentile(p float64) float64 {
	return stats.Percentile(o.StaleComm, p)
}
func (o *RegaugeOutcome) RemappedPercentile(p float64) float64 {
	return stats.Percentile(o.RemappedComm, p)
}

// Digest is the canonical SHA-256 of the run's decision history:
// published versions, every remap decision, and the final placement
// digest. Two runs with the same seed, schedule, and clock must produce
// byte-identical digests at any Workers setting.
func (o *RegaugeOutcome) Digest() string {
	h := sha256.New()
	line := func(format string, args ...any) {
		fmt.Fprintf(h, format+"\n", args...) //geolint:ignore errcheck hash.Hash.Write documents a nil error
	}
	line("preset=%s windows=%d", o.Preset, o.Windows)
	for _, pr := range o.Passes {
		line("pass=%d at=%.6f outcome=%s mode=%s version=%d drift=%.9f",
			pr.Pass, pr.At.Float(), pr.Outcome, pr.Mode, pr.PublishedVersion, pr.MaxDrift)
		for _, d := range pr.Decisions {
			line("  target=%s action=%s moved=%d saving=%.9f migration=%.9f",
				d.Target, d.Action, d.Moved, d.SavingSeconds, d.MigrationSeconds)
		}
	}
	line("initial=%s final=%s", o.InitialDigest, o.FinalDigest)
	return hex.EncodeToString(h.Sum(nil))
}

// staticSource is the scenario's single-placement TargetSource: one
// tracked placement whose current result advances as remaps land.
type staticSource struct {
	target  regauge.Target
	applied []*service.MapResult
}

func (s *staticSource) Targets() []regauge.Target { return []regauge.Target{s.target} }

func (s *staticSource) Apply(t regauge.Target, res *service.MapResult) error {
	s.target.Result = res
	s.applied = append(s.applied, res)
	return nil
}

// RunRegauge replays a day of the scenario's fault preset with the
// re-gauging loop live: geomapd's control loop, but driven offline on
// the schedule clock so the whole day runs in milliseconds and the
// decision history is exactly reproducible.
//
// Each gauge interval contributes one measurement window: a single
// iteration of the workload replayed under the fault schedule at the
// window's start, once with the stale initial placement and once with
// the re-gauged placement current at that time. The percentile spread of
// the two series is the scenario's SLO comparison.
func RunRegauge(sc RegaugeScenario) (*RegaugeOutcome, error) {
	sc = sc.withDefaults()
	cloud, err := HeadroomCloudForScale(sc.N, sc.Seed)
	if err != nil {
		return nil, err
	}
	app, err := apps.ByName(sc.App)
	if err != nil {
		return nil, err
	}
	inst, err := BuildInstance(cloud, app, sc.N, 1, 0.0, sc.Seed)
	if err != nil {
		return nil, err
	}
	sched, err := faults.Preset(sc.Preset, cloud.M(), sc.Seed)
	if err != nil {
		return nil, err
	}
	mapper := &core.GeoMapper{Kappa: 4, Seed: sc.Seed, Workers: sc.Workers}
	stalePl, err := mapper.Map(inst.Problem)
	if err != nil {
		return nil, err
	}

	// The store starts from the instance's calibrated model — the same
	// matrices the initial placement was optimized against — so the first
	// drift the gauger sees is the fault schedule's, not calibration noise.
	initial := service.SnapshotFromCloud(cloud)
	initial.Source = "calibration"
	initial.LT = inst.Problem.LT
	initial.BT = inst.Problem.BT
	store, err := service.NewStore(initial)
	if err != nil {
		return nil, err
	}

	src := &staticSource{target: regauge.Target{
		Key:     "scenario",
		Request: &service.MapRequest{Workload: sc.App, Procs: sc.N, Algorithm: "geo", Seed: sc.Seed},
		Result: &service.MapResult{
			SnapshotVersion: 1,
			Algorithm:       mapper.Name(),
			Placement:       []int(stalePl),
			Digest:          service.PlacementDigest(stalePl),
		},
		Problem: func(snap *service.Snapshot) (*core.Problem, error) {
			// Same pattern and constraints, fresh network model.
			p := *inst.Problem
			p.LT = snap.LT
			p.BT = snap.BT
			if err := p.Validate(); err != nil {
				return nil, err
			}
			return &p, nil
		},
	}}

	g, err := regauge.New(regauge.Config{
		Cloud:    cloud,
		Store:    store,
		Source:   src,
		Faults:   sched,
		Seed:     sc.Seed,
		Interval: units.Seconds(scenarioInterval),
	})
	if err != nil {
		return nil, err
	}

	out := &RegaugeOutcome{Preset: sc.Preset, InitialDigest: service.PlacementDigest(stalePl)}
	for now := scenarioInterval; now <= sc.DaySeconds; {
		pr := g.Step(units.Seconds(now))
		out.Passes = append(out.Passes, pr)
		for _, d := range pr.Decisions {
			switch d.Action {
			case regauge.ActionTriggered:
				out.RemapsTriggered++
				out.MigrationSeconds += d.MigrationSeconds
			case regauge.ActionCooldown:
				out.SuppressedCooldown++
			case regauge.ActionUneconomic:
				out.SuppressedUneconomic++
			}
		}
		if pr.PublishedVersion > 0 {
			out.Published++
		}

		stale, _, err := inst.SimulateFaultyReplay(stalePl, sched, now)
		if err != nil {
			return nil, err
		}
		current := core.Placement(src.target.Result.Placement)
		remapped, _, err := inst.SimulateFaultyReplay(current, sched, now)
		if err != nil {
			return nil, err
		}
		out.StaleComm = append(out.StaleComm, stale.CommSeconds)
		out.RemappedComm = append(out.RemappedComm, remapped.CommSeconds)
		out.Windows++

		now += pr.NextWait.Float()
	}
	out.FinalDigest = src.target.Result.Digest
	return out, nil
}

// ExtRegauge is the geobench experiment over the closed-loop re-gauging
// scenario: a day of DiurnalDrift and a day of SiteBlackout, comparing
// the SLO percentiles of the stale placement against the continuously
// re-gauged one, with the hysteresis accounting alongside.
func ExtRegauge(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "regauge",
		Title:  "Extension: closed-loop re-gauging over a fault day (CG, 64 processes, headroom cloud)",
		Header: []string{"Preset", "Windows", "Published", "Remaps", "Suppressed", "Stale p50 (s)", "Stale p99 (s)", "Regauged p50 (s)", "Regauged p99 (s)", "p99 gain"},
	}
	day := 960.0
	if cfg.Quick {
		day = 480
	}
	for _, preset := range []string{"DiurnalDrift", "SiteBlackout"} {
		out, err := RunRegauge(RegaugeScenario{
			Preset:     preset,
			DaySeconds: day,
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		r.AddRow(preset,
			fmt.Sprint(out.Windows),
			fmt.Sprint(out.Published),
			fmt.Sprint(out.RemapsTriggered),
			fmt.Sprint(out.SuppressedCooldown+out.SuppressedUneconomic),
			fmt.Sprintf("%.2f", out.StalePercentile(50)),
			fmt.Sprintf("%.2f", out.StalePercentile(99)),
			fmt.Sprintf("%.2f", out.RemappedPercentile(50)),
			fmt.Sprintf("%.2f", out.RemappedPercentile(99)),
			fmt.Sprintf("%.1f%%", ImprovementPct(out.StalePercentile(99), out.RemappedPercentile(99))))
	}
	r.AddNote("Each gauge interval contributes one window: a single measured iteration under the schedule at that time, stale vs currently re-gauged placement. Percentiles are over the day's windows.")
	r.AddNote("Suppressed counts both hysteresis outcomes: remaps inside a cooldown window and remaps whose predicted saving did not clear migration cost × safety factor.")
	r.AddNote("The decision history (published versions, remap decisions, final digest) hashes to a byte-identical digest for a fixed seed at any Workers setting; the determinism test asserts this.")
	return r, nil
}
