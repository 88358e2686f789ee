// Quickstart: map an NPB LU run onto the paper's four-region EC2 cloud and
// compare the Geo-distributed mapping against a random baseline.
//
// This walks the library's whole pipeline by hand — cloud model,
// application profiling, network calibration, problem assembly, mapping,
// and simulation — the same steps the higher-level experiments package
// automates.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/calib"
	"geoprocmap/internal/core"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/netsim"
	"geoprocmap/internal/stats"
)

func main() {
	// 1. Model the cloud: 4 EC2 regions × 16 m4.xlarge instances (the
	// paper's testbed).
	cloud, err := netmodel.PaperCloud(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cloud: %d sites, %d nodes\n", cloud.M(), cloud.TotalNodes())

	// 2. Profile the application: trace one iteration of LU on 64
	// processes and aggregate its CG/AG communication pattern.
	app := apps.NewLU()
	rec, err := apps.Trace(app, 64, 1)
	if err != nil {
		log.Fatal(err)
	}
	pattern := rec.Graph()
	fmt.Printf("profiled %s: %d messages, %.1f MB per iteration\n",
		app.Name(), rec.Len(), pattern.TotalVolume()/netmodel.MB)

	// 3. Calibrate the network: ping-pong probes of every site pair give
	// the LT/BT matrices (O(M²) sessions, not O(N²)).
	cal, err := calib.Calibrate(cloud, calib.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated %d site-pair sessions in %.0f simulated minutes\n",
		cal.SitePairSessions, cal.OverheadSeconds.Float()/60)

	// 4. Assemble the mapping problem. No data-movement constraints here;
	// see examples/privacy for pinned processes.
	problem := &core.Problem{
		Comm:       pattern,
		LT:         cal.LT,
		BT:         cal.BT,
		PC:         cloud.Coordinates(),
		Capacity:   cloud.Capacity(),
		Constraint: make(core.Placement, pattern.N()),
	}
	for i := range problem.Constraint {
		problem.Constraint[i] = core.Unconstrained
	}

	// 5. Map with the paper's Geo-distributed algorithm.
	mapper := &core.GeoMapper{Kappa: 4, Seed: 1}
	placement, err := mapper.Map(problem)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("geo cost:    %.3f\n", problem.Cost(placement))

	// 6. Compare against random mappings, in cost and in simulated time.
	rng := stats.NewRand(7)
	random, err := core.RandomPlacement(problem, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random cost: %.3f\n", problem.Cost(random))

	simGeo, err := netsim.New(cloud, placement)
	if err != nil {
		log.Fatal(err)
	}
	simRand, err := netsim.New(cloud, random)
	if err != nil {
		log.Fatal(err)
	}
	tGeo, err := simGeo.ReplayTrace(rec.Events())
	if err != nil {
		log.Fatal(err)
	}
	tRand, err := simRand.ReplayTrace(rec.Events())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated comm time per iteration: geo %.2fs vs random %.2fs (%.0f%% faster)\n",
		tGeo, tRand, (tRand-tGeo).Float()/tRand.Float()*100)
}
