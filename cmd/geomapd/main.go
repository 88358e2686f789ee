// Command geomapd serves process mappings over HTTP: POST a comm
// matrix or a named workload preset to /v1/map and get back a
// placement, its cost split, and the version of the network snapshot it
// was solved against. Solves run on a bounded worker pool, identical
// requests are deduplicated in flight and answered from an LRU result
// cache, and operators feed fresh calibration matrices or fault reports
// through POST /admin/snapshot without restarting the daemon. Each solve
// may itself parallelize the geo mapper's group-order search
// (-solver-workers); the pool size × per-solve product is clamped to
// GOMAXPROCS so the daemon never oversubscribes the machine.
//
// With -regauge the daemon also runs the closed calibration loop
// (internal/regauge): periodic reduced-budget probes of the modeled
// cloud — optionally against a -faults schedule — publish drift-refreshed
// snapshots into the store and re-map cached placements when the
// predicted saving amortizes the migration cost. /healthz reports the
// loop's mode and the snapshot's age, degrading to 503 past
// -max-staleness.
//
// Usage:
//
//	geomapd                                    # paper's 4-region EC2 cloud, :8080
//	geomapd -addr 127.0.0.1:0 -addr-file /tmp/geomapd.addr
//	geomapd -regions us-east,eu-west -nodes 32 -workers 8
//	geomapd -calib -days 3                     # bootstrap snapshot from calibration
//	geomapd -regauge -faults FlakyWAN -regauge-timescale 300
//	geomapd -addr :8081 -self http://127.0.0.1:8081 \
//	        -peers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// With -peers the daemon joins a sharded fleet: request routing keys are
// consistent-hashed across the peer list, a shard miss consults the
// owning peer before solving locally, and every snapshot publication —
// admin posts and re-gauging alike — replicates to all peers
// version-ordered, so replays are idempotent.
//
// SIGTERM or SIGINT starts a graceful drain: the listener stops
// accepting, in-flight requests finish, the solve queue empties, and
// then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"geoprocmap/internal/buildinfo"
	"geoprocmap/internal/calib"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/regauge"
	"geoprocmap/internal/service"
	"geoprocmap/internal/units"
)

func main() {
	d, err := newDaemon(flag.CommandLine, os.Args[1:], os.Stderr)
	if err != nil {
		fatal(err)
	}
	if d == nil { // -version
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		fatal(err)
	}
	if d.addrFile != "" {
		// The rename makes the file appear only with its full contents,
		// so a process polling for it never reads a partial address.
		tmp := d.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(err)
		}
		if err := os.Rename(tmp, d.addrFile); err != nil {
			fatal(err)
		}
	}
	if err := d.serve(ctx, ln); err != nil {
		fatal(err)
	}
}

// daemon is one configured geomapd that is not yet listening: its
// snapshot store, the mapping server (wired to the fleet with -peers)
// and, with -regauge, the re-gauging loop.
type daemon struct {
	addr, addrFile string
	logger         *log.Logger
	store          *service.Store
	srv            *service.Server
	gauger         *regauge.Gauger // nil without -regauge
	sites, nodes   int
}

// newDaemon parses geomapd's command line from args into fs and builds
// the daemon, logging to logw. After -version it prints the version and
// returns a nil daemon.
func newDaemon(fs *flag.FlagSet, args []string, logw io.Writer) (*daemon, error) {
	var (
		addr        = fs.String("addr", ":8080", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		addrFile    = fs.String("addr-file", "", "write the bound address to this file once listening")
		provider    = fs.String("provider", "ec2", "cloud provider: ec2 or azure")
		regions     = fs.String("regions", strings.Join(netmodel.PaperEC2Regions, ","), "comma-separated regions")
		instance    = fs.String("instance", "m4.xlarge", "instance type")
		nodes       = fs.Int("nodes", 16, "nodes per site")
		seed        = fs.Int64("seed", 1, "random seed for the modeled cloud")
		useCalib    = fs.Bool("calib", false, "bootstrap the snapshot from a calibration run instead of ground truth")
		days        = fs.Int("days", 1, "calibration days (with -calib)")
		samples     = fs.Int("samples", 5, "calibration samples per day per pair (with -calib)")
		workers     = fs.Int("workers", 4, "solver pool size")
		solverWkrs  = fs.Int("solver-workers", 0, "order-search goroutines per solve (0 = derive from GOMAXPROCS/workers; pool×per-solve is clamped to GOMAXPROCS)")
		queueDepth  = fs.Int("queue", 0, "pending-solve bound before shedding (default 4×workers)")
		cacheSize   = fs.Int("cache", 1024, "result cache entries")
		maxProcs    = fs.Int("max-procs", 4096, "largest accepted process count")
		deadline    = fs.Duration("deadline", 30*time.Second, "default per-request solve deadline")
		showVersion = fs.Bool("version", false, "print version and exit")

		peers       = fs.String("peers", "", "comma-separated base URLs of the whole fleet including this daemon (enables cluster mode; every daemon must get the same list)")
		selfURL     = fs.String("self", "", "this daemon's own base URL as it appears in -peers (required with -peers)")
		peerTimeout = fs.Duration("peer-timeout", 10*time.Second, "per-peer HTTP timeout for result fetches and snapshot replication")

		faultSpec   = fs.String("faults", "", "fault schedule the re-gauging probes run against: preset name (FlakyWAN, SiteBlackout, DiurnalDrift) or JSON file")
		maxStale    = fs.Duration("max-staleness", 0, "snapshot age past which /healthz answers 503 (0 = report age only)")
		regaugeOn   = fs.Bool("regauge", false, "run the closed-loop re-gauging control loop")
		rgInterval  = fs.Duration("regauge-interval", 30*time.Second, "schedule time between gauge passes")
		rgTimescale = fs.Float64("regauge-timescale", 1, "schedule seconds per wall second (e.g. 300 ticks a 30 s interval every 100 ms)")
		rgDrift     = fs.Float64("regauge-drift", 0.15, "relative per-pair change that counts as drift")
		rgCooldown  = fs.Duration("regauge-cooldown", 0, "per-placement cooldown after a triggered remap (0 = 3× interval)")
		rgSafety    = fs.Float64("regauge-safety", 2, "remap only when predicted saving > migration time × this factor")
		rgSamples   = fs.Int("regauge-samples", 3, "per-pair probe budget of one gauge pass")
		rgWindow    = fs.Int("regauge-window", 3, "per-pair smoothing window (passes)")
		rgMaxFail   = fs.Int("regauge-max-failures", 3, "consecutive failed passes before publication freezes")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *showVersion {
		fmt.Println(buildinfo.Version("geomapd"))
		return nil, nil
	}

	var p *netmodel.Provider
	switch *provider {
	case "ec2":
		p = netmodel.AmazonEC2
	case "azure":
		p = netmodel.WindowsAzure
	default:
		return nil, fmt.Errorf("unknown provider %q", *provider)
	}
	cloud, err := netmodel.EvenCloud(p, *instance, strings.Split(*regions, ","), *nodes, netmodel.Options{Seed: *seed})
	if err != nil {
		return nil, err
	}

	snap := service.SnapshotFromCloud(cloud)
	if *useCalib {
		res, err := calib.Calibrate(cloud, calib.Options{Seed: *seed, Days: *days, SamplesPerDay: *samples})
		if err != nil {
			return nil, err
		}
		if snap, err = service.SnapshotFromCalibration(cloud, res); err != nil {
			return nil, err
		}
	}
	store, err := service.NewStore(snap)
	if err != nil {
		return nil, err
	}
	sched, err := faults.FromSpec(*faultSpec, cloud.M(), *seed)
	if err != nil {
		return nil, err
	}

	logger := log.New(logw, "geomapd: ", log.LstdFlags)

	// -peers switches on cluster mode: the fleet shares one consistent-hash
	// ring over request routing keys, snapshot publications replicate to
	// every peer, and shard misses consult the owning peer before solving
	// locally. The regauge loop publishes through the replicator so its
	// refreshed models reach the whole fleet.
	var cluster *service.Cluster
	var publisher regauge.SnapshotPublisher = store
	if *peers != "" {
		if *selfURL == "" {
			return nil, fmt.Errorf("-peers requires -self (this daemon's URL as listed in -peers)")
		}
		cluster, err = service.NewCluster(service.ClusterConfig{
			Self:    *selfURL,
			Peers:   strings.Split(*peers, ","),
			Timeout: *peerTimeout,
			Logf:    logger.Printf,
		})
		if err != nil {
			return nil, err
		}
		publisher = service.NewReplicator(store, cluster)
		logger.Printf("cluster: %d-node fleet, self %s", cluster.Ring().Size(), cluster.Self())
	}

	srv, err := service.NewServer(service.Config{
		Store:           store,
		Cluster:         cluster,
		Workers:         *workers,
		SolverWorkers:   *solverWkrs,
		QueueDepth:      *queueDepth,
		CacheSize:       *cacheSize,
		MaxProcs:        *maxProcs,
		DefaultDeadline: *deadline,
		MaxStaleness:    *maxStale,
		Logf:            logger.Printf,
	})
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: *addr, addrFile: *addrFile, logger: logger, store: store, srv: srv, sites: cloud.M(), nodes: *nodes}

	if *regaugeOn {
		d.gauger, err = regauge.New(regauge.Config{
			Cloud:          cloud,
			Store:          publisher,
			Source:         regauge.ServerSource{Server: srv},
			Faults:         sched,
			Seed:           *seed,
			Interval:       units.Seconds(rgInterval.Seconds()),
			Samples:        *rgSamples,
			DriftThreshold: *rgDrift,
			Window:         *rgWindow,
			SafetyFactor:   *rgSafety,
			Cooldown:       units.Seconds(rgCooldown.Seconds()),
			SolverWorkers:  *solverWkrs,
			MaxFailures:    *rgMaxFail,
			Timescale:      *rgTimescale,
			Logf:           logger.Printf,
		})
		if err != nil {
			srv.Close()
			return nil, err
		}
		srv.RegisterStatus("regauge", d.gauger.StatusProbe)
	}
	return d, nil
}

// serve answers HTTP on ln, with the re-gauging loop running, until ctx
// ends. Then it drains: the listener stops accepting, in-flight requests
// finish, the loop stops touching the cache, and the solve queue empties
// before the final counters are logged. It returns nil after a clean
// drain, or the error that stopped the listener early.
func (d *daemon) serve(ctx context.Context, ln net.Listener) error {
	cur := d.store.Current()
	d.logger.Printf("listening on %s (%d sites × %d nodes, snapshot v%d from %s)",
		ln.Addr(), d.sites, d.nodes, cur.Version, cur.Source)

	gctx, gcancel := context.WithCancel(context.Background())
	gdone := make(chan struct{})
	go func() {
		defer close(gdone)
		if d.gauger != nil {
			d.gauger.Run(gctx)
		}
	}()

	hs := &http.Server{Handler: d.srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var err error
	select {
	case <-ctx.Done():
		d.logger.Printf("draining")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			d.logger.Printf("shutdown: %v", err)
		}
	case err = <-serveErr: // Serve returns before Shutdown only on failure.
	}
	gcancel()
	<-gdone
	if d.gauger != nil {
		d.logger.Printf("regauge: stopped")
	}
	d.srv.Close()
	v := d.srv.Metrics().Snapshot(0, 0)
	d.logger.Printf("drained: %d requests (%d solves, %d cache hits, %d deduped, %d shed)",
		v.Requests, v.Solves, v.CacheHits, v.Deduped, v.Rejected)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geomapd:", err)
	os.Exit(1)
}
