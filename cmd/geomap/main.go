// Command geomap computes a process mapping for a workload on a
// geo-distributed cloud and reports the placement, its cost, and its
// improvement over the random baseline.
//
// Usage:
//
//	geomap -app LU -n 64                               # paper's deployment
//	geomap -app K-means -n 128 -regions us-east-1,eu-west-1 -algo greedy
//	geomap -app DNN -n 64 -constraints 0.4 -kappa 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/buildinfo"
	"geoprocmap/internal/core"
	"geoprocmap/internal/experiments"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/service"
	"geoprocmap/internal/stats"
)

func main() {
	var (
		appName  = flag.String("app", "LU", "workload: LU, BT, SP, K-means, DNN")
		n        = flag.Int("n", 64, "number of processes (one per instance)")
		regions  = flag.String("regions", strings.Join(netmodel.PaperEC2Regions, ","), "comma-separated EC2 regions")
		instance = flag.String("instance", "m4.xlarge", "EC2 instance type")
		algo     = flag.String("algo", "geo", "mapper: geo, multilevel, greedy, mpipp, random, montecarlo")
		kappa    = flag.Int("kappa", 4, "number of K-means site groups for the geo mapper")
		workers  = flag.Int("workers", 0, "order-search goroutines for the geo mapper (0 = GOMAXPROCS, 1 = serial)")
		ratio    = flag.Float64("constraints", 0.2, "data-movement constraint ratio")
		seed     = flag.Int64("seed", 1, "random seed")
		verbose  = flag.Bool("v", false, "print the full placement vector")
		expProb  = flag.String("export-problem", "", "write the assembled problem as JSON to this file")
		expPlace = flag.String("export-placement", "", "write the computed placement as JSON to this file")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Version("geomap"))
		return
	}

	app, err := apps.ByName(*appName)
	if err != nil {
		fatal(err)
	}
	regionList := strings.Split(*regions, ",")
	if *n%len(regionList) != 0 {
		fatal(fmt.Errorf("process count %d not divisible by %d regions", *n, len(regionList)))
	}
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, *instance, regionList, *n/len(regionList), netmodel.Options{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	inst, err := experiments.BuildInstance(cloud, app, *n, app.DefaultIters(), *ratio, *seed)
	if err != nil {
		fatal(err)
	}

	mapper, err := (&service.MapRequest{Algorithm: *algo, Kappa: *kappa, Seed: *seed}).Mapper(*workers)
	if err != nil {
		fatal(err)
	}

	pl, dur, err := inst.MapAndTime(mapper)
	if err != nil {
		fatal(err)
	}
	cost := inst.Problem.Cost(pl)

	// Random-baseline reference cost.
	rng := stats.NewRand(*seed + 42)
	var randCost float64
	const refs = 20
	for i := 0; i < refs; i++ {
		rp, err := core.RandomPlacement(inst.Problem, rng)
		if err != nil {
			fatal(err)
		}
		randCost += inst.Problem.Cost(rp).Float()
	}
	randCost /= refs

	fmt.Printf("workload:      %s on %d processes, %d iterations\n", app.Name(), *n, app.DefaultIters())
	fmt.Printf("cloud:         %s × %d nodes in %v\n", *instance, cloud.TotalNodes(), regionList)
	fmt.Printf("algorithm:     %s (overhead %v)\n", mapper.Name(), dur.Round(dur/1000+1))
	fmt.Printf("cost:          %.4f (α–β model, seconds of aggregate transfer)\n", cost)
	fmt.Printf("baseline cost: %.4f (mean of %d random mappings)\n", randCost, refs)
	fmt.Printf("improvement:   %.1f%%\n", experiments.ImprovementPct(randCost, cost.Float()))
	fmt.Println("processes per site:")
	counts := pl.Histogram(cloud.M())
	for j, c := range counts {
		fmt.Printf("  %-18s %d\n", cloud.Sites[j].Region.Name, c)
	}
	if st, err := inst.Problem.Diagnose(pl); err == nil {
		fmt.Printf("cross-WAN traffic: %.1f%% of volume (%.2f MB, %d messages)\n",
			100*st.CrossFraction(), st.CrossVolume.Float()/1e6, int(st.CrossMsgs))
		for _, f := range st.TopWANFlows(3) {
			fmt.Printf("  heaviest WAN flow: %s → %s, %.2f MB\n",
				cloud.Sites[int(f[0])].Region.Name, cloud.Sites[int(f[1])].Region.Name, f[2]/1e6)
		}
	}
	if *verbose {
		fmt.Println("placement:", pl)
	}
	if *expProb != "" {
		f, err := os.Create(*expProb)
		if err != nil {
			fatal(err)
		}
		if err := inst.Problem.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("problem written to", *expProb)
	}
	if *expPlace != "" {
		f, err := os.Create(*expPlace)
		if err != nil {
			fatal(err)
		}
		if err := core.WritePlacementJSON(f, mapper.Name(), cost.Float(), pl); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("placement written to", *expPlace)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geomap:", err)
	os.Exit(1)
}
