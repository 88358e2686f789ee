// Command geosim simulates a workload's execution on a geo-distributed
// cloud under a chosen mapping algorithm and prints the timing breakdown
// against the random baseline.
//
// Usage:
//
//	geosim -app LU -n 64                       # geo mapper, replay engine
//	geosim -app K-means -n 256 -algo greedy -engine fluid
//	geosim -app LU -n 64 -faults SiteBlackout  # WAN chaos + failure-aware remap
//	geosim -regauge                            # a day of DiurnalDrift, closed loop live
//	geosim -regauge -faults SiteBlackout -day 480
//
// With -faults, the tool additionally replays the workload under the named
// fault preset (or a JSON schedule file), prints the structured fault
// report, and compares the stale placement against the failure-aware
// remapping computed by core.Remap. The cloud then carries capacity
// headroom (ceil(n/3) nodes per region) so a site blackout is survivable.
//
// With -regauge, the tool instead replays a day of the fault preset with
// the closed-loop re-gauging control loop live (internal/regauge, driven
// offline on the schedule clock): the stale initial placement is compared
// window by window against the continuously re-gauged one, and the report
// includes the loop's publication and hysteresis accounting plus the
// deterministic decision digest.
package main

import (
	"flag"
	"fmt"
	"os"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/buildinfo"
	"geoprocmap/internal/core"
	"geoprocmap/internal/experiments"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/service"
)

func main() {
	var (
		appName   = flag.String("app", "LU", "workload: LU, BT, SP, K-means, DNN")
		n         = flag.Int("n", 64, "number of processes (multiple of 4)")
		algo      = flag.String("algo", "geo", "mapper: geo, multilevel, greedy, mpipp, random, montecarlo")
		engine    = flag.String("engine", "replay", "simulation engine: replay, fluid, ps")
		iters     = flag.Int("iters", 0, "iterations (0 = workload default)")
		ratio     = flag.Float64("constraints", 0.2, "data-movement constraint ratio")
		repeats   = flag.Int("repeats", 10, "random baselines averaged")
		seed      = flag.Int64("seed", 1, "random seed")
		faultSpec = flag.String("faults", "", "fault schedule: a preset name ("+fmt.Sprint(faults.PresetNames())+") or a JSON file")

		regaugeMode = flag.Bool("regauge", false, "replay a fault day with the closed-loop re-gauging control loop live and report the SLO comparison")
		day         = flag.Float64("day", 0, "replayed horizon in schedule seconds (with -regauge; 0 = preset default)")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Version("geosim"))
		return
	}
	if *regaugeMode {
		preset := *faultSpec
		if preset == "" {
			preset = "DiurnalDrift"
		}
		// The scenario's own workload default is CG (chosen so a congestion
		// peak moves both the objective and the measured critical path) —
		// honor -app only when the user actually set it.
		app := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "app" {
				app = *appName
			}
		})
		if err := runRegauge(preset, app, *n, *day, *seed); err != nil {
			fatal(err)
		}
		return
	}

	app, err := apps.ByName(*appName)
	if err != nil {
		fatal(err)
	}
	it := *iters
	if it == 0 {
		it = app.DefaultIters()
	}
	cloud, err := experiments.PaperCloudForScale(*n, *seed)
	if *faultSpec != "" {
		// Faults need capacity headroom: a blackout must leave enough
		// surviving slots to rehost every process.
		cloud, err = experiments.HeadroomCloudForScale(*n, *seed)
	}
	if err != nil {
		fatal(err)
	}
	inst, err := experiments.BuildInstance(cloud, app, *n, it, *ratio, *seed)
	if err != nil {
		fatal(err)
	}

	var mode experiments.SimMode
	switch *engine {
	case "replay":
		mode = experiments.SimReplay
	case "fluid":
		mode = experiments.SimFluid
	case "ps":
		mode = experiments.SimFluidPS
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}

	mapper, err := (&service.MapRequest{Algorithm: *algo, Kappa: 4, Seed: *seed}).Mapper(0)
	if err != nil {
		fatal(err)
	}

	base, err := inst.BaselineSim(*repeats, *seed+100, mode)
	if err != nil {
		fatal(err)
	}
	pl, dur, err := inst.MapAndTime(mapper)
	if err != nil {
		fatal(err)
	}
	res, err := inst.Simulate(pl, mode)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("workload: %s × %d iterations on %d processes (%s engine)\n", app.Name(), it, *n, *engine)
	fmt.Printf("mapper:   %s (optimization overhead %v)\n\n", mapper.Name(), dur.Round(dur/1000+1))
	fmt.Printf("%-22s %12s %12s %12s\n", "", "compute (s)", "comm (s)", "total (s)")
	fmt.Printf("%-22s %12.2f %12.2f %12.2f\n", "Baseline (random ×"+fmt.Sprint(*repeats)+")", base.ComputeSeconds, base.CommSeconds, base.Total())
	fmt.Printf("%-22s %12.2f %12.2f %12.2f\n\n", mapper.Name(), res.ComputeSeconds, res.CommSeconds, res.Total())
	fmt.Printf("communication improvement: %.1f%%\n", experiments.ImprovementPct(base.CommSeconds, res.CommSeconds))
	fmt.Printf("overall improvement:       %.1f%%\n", experiments.ImprovementPct(base.Total(), res.Total()+dur.Seconds()))

	if *faultSpec != "" {
		if err := runFaulty(inst, pl, *faultSpec, *seed); err != nil {
			fatal(err)
		}
	}
}

// runFaulty replays the mapped placement under the fault schedule, prints
// the structured report, and compares against the failure-aware remapping.
func runFaulty(inst *experiments.Instance, stale core.Placement, spec string, seed int64) error {
	sched, err := faults.FromSpec(spec, inst.Cloud.M(), seed)
	if err != nil {
		return err
	}
	staleRes, staleRep, err := inst.SimulateFaultyReplay(stale, sched, experiments.FaultStart)
	if err != nil {
		return err
	}
	fmt.Printf("\n-- fault injection: %s (replay engine, t₀ = %g s) --\n", sched.Name, experiments.FaultStart)
	fmt.Printf("fault report (stale placement): %s\n", staleRep)
	fmt.Printf("stale comm under faults:        %.2f s\n", staleRes.CommSeconds)

	remap, err := core.Remap(inst.Problem, stale, staleRep, core.RemapOptions{})
	if err != nil {
		return err
	}
	if len(remap.Migrated) == 0 {
		fmt.Println("failure-aware remap:            no dead sites — placement unchanged")
		return nil
	}
	repairedRes, repairedRep, err := inst.SimulateFaultyReplay(remap.Placement, sched, experiments.FaultStart)
	if err != nil {
		return err
	}
	fmt.Printf("failure-aware remap:            migrated %d processes in %.1f s\n", len(remap.Migrated), remap.MigrationSeconds)
	fmt.Printf("fault report (remapped):        %s\n", repairedRep)
	fmt.Printf("remapped comm under faults:     %.2f s\n", repairedRes.CommSeconds)
	fmt.Printf("recovery:                       %.1f%% of the stale communication time\n",
		experiments.ImprovementPct(staleRes.CommSeconds, repairedRes.CommSeconds))
	return nil
}

// runRegauge replays a day of the fault preset with the re-gauging loop
// live (offline, on the schedule clock) and prints the stale-vs-regauged
// SLO comparison plus the loop's hysteresis accounting.
func runRegauge(preset, appName string, n int, day float64, seed int64) error {
	if appName == "" {
		appName = "CG" // the scenario default, restated for the header
	}
	out, err := experiments.RunRegauge(experiments.RegaugeScenario{
		Preset:     preset,
		App:        appName,
		N:          n,
		DaySeconds: day,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("closed-loop re-gauging: %s × %g s, %s on %d processes, seed %d\n\n",
		out.Preset, out.Passes[len(out.Passes)-1].At.Float(), appName, n, seed)
	fmt.Printf("gauge passes:        %d (%d windows measured)\n", len(out.Passes), out.Windows)
	fmt.Printf("snapshots published: %d\n", out.Published)
	fmt.Printf("remaps triggered:    %d (%.1f s total migration)\n", out.RemapsTriggered, out.MigrationSeconds)
	fmt.Printf("remaps suppressed:   %d cooldown, %d uneconomic\n\n", out.SuppressedCooldown, out.SuppressedUneconomic)
	fmt.Printf("%-22s %10s %10s %10s\n", "comm time per window", "p50 (s)", "p90 (s)", "p99 (s)")
	fmt.Printf("%-22s %10.2f %10.2f %10.2f\n", "stale placement",
		out.StalePercentile(50), out.StalePercentile(90), out.StalePercentile(99))
	fmt.Printf("%-22s %10.2f %10.2f %10.2f\n\n", "continuously regauged",
		out.RemappedPercentile(50), out.RemappedPercentile(90), out.RemappedPercentile(99))
	fmt.Printf("p99 improvement:     %.1f%%\n", experiments.ImprovementPct(out.StalePercentile(99), out.RemappedPercentile(99)))
	fmt.Printf("placement digest:    %s -> %s\n", out.InitialDigest[:12], out.FinalDigest[:12])
	fmt.Printf("decision digest:     %s\n", out.Digest())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geosim:", err)
	os.Exit(1)
}
