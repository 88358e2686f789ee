// Command geoload is a seeded closed-loop load generator for geomapd.
// Each of -c workers repeatedly takes the next request from a
// deterministic mix of cached (a small pool of repeating requests),
// novel (unique seed per request), and constrained (random pins)
// mapping requests, posts it — retrying 503 pool-shed responses behind
// capped, jittered exponential backoff — and records the latency. The
// run reports throughput, latency percentiles, outcome counts (with
// retries tallied separately from failures), and a placement digest
// folded over every response in request order: two runs with the same
// -seed against equivalent servers must print the same digest. The
// stream, routing and fold live in internal/loadgen, which the geomapd
// gate tests drive too.
//
// Usage:
//
//	geoload -url http://127.0.0.1:8080 -n 200 -c 8
//	geoload -url http://$(cat /tmp/geomapd.addr) -mix 0.8,0.15,0.05
//	geoload -url http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// -url accepts a comma-separated fleet; -route picks how requests are
// spread over it: "hash" (default) computes the same consistent-hash
// ring a -peers cluster uses server-side, so each request lands on its
// shard owner, while "rr" round-robins and exercises the cluster's
// peer-consult path. Responses are deterministic either way, so the
// digest matches the single-daemon run at any fleet size.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"geoprocmap/internal/buildinfo"
	"geoprocmap/internal/loadgen"
	"geoprocmap/internal/stats"
)

func main() {
	var (
		url         = flag.String("url", "http://127.0.0.1:8080", "geomapd base URL, or a comma-separated fleet of them")
		route       = flag.String("route", "hash", "multi-URL routing policy: hash (ring-route each request to its shard owner, matching the servers' ring) or rr (round-robin)")
		requests    = flag.Int("n", 200, "total requests to issue")
		concurrency = flag.Int("c", 8, "concurrent closed-loop workers")
		mix         = flag.String("mix", "0.70,0.20,0.10", "cached,novel,constrained request fractions")
		app         = flag.String("app", "LU", "workload preset for generated requests")
		procs       = flag.Int("procs", 16, "processes per request")
		sites       = flag.Int("sites", 4, "site count for constrained requests (pins draw from [0,sites))")
		cachedPool  = flag.Int("pool", 4, "distinct requests in the cached pool")
		seed        = flag.Int64("seed", 1, "random seed for the request stream")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request HTTP timeout")
		retries     = flag.Int("retries", 4, "max retries per request after a 503 pool-shed response")
		retryBase   = flag.Duration("retry-base", 50*time.Millisecond, "base retry backoff (doubles per attempt, ±25% jitter, capped at 16×)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Version("geoload"))
		return
	}
	fracs, err := loadgen.ParseMix(*mix)
	if err != nil {
		fatal(err)
	}
	rep, err := loadgen.Run(&loadgen.Options{
		URL: *url, Route: *route,
		Requests: *requests, Concurrency: *concurrency,
		Mix: fracs, App: *app, Procs: *procs, Sites: *sites, Pool: *cachedPool, Seed: *seed,
		Timeout: *timeout, Retries: *retries, RetryBase: *retryBase,
	})
	if err != nil {
		fatal(err)
	}

	shown := 0
	for i := range rep.Outcomes {
		res := &rep.Outcomes[i]
		if !res.Failed() || shown == 3 { // show the first few failures, not a flood
			continue
		}
		shown++
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "geoload: request %d: %v\n", i, res.Err)
		} else {
			fmt.Fprintf(os.Stderr, "geoload: request %d: HTTP %d\n", i, res.Status)
		}
	}
	fmt.Printf("geoload: %d requests in %.2fs (%.0f req/s), concurrency %d, seed %d\n",
		*requests, rep.Elapsed.Seconds(), float64(*requests)/rep.Elapsed.Seconds(), *concurrency, *seed)
	fmt.Printf("  ok %d, cached %d, deduped %d, retried %d, failed %d\n", rep.OK, rep.Cached, rep.Deduped, rep.Retried, rep.Failed)
	if lats := rep.LatencyMs; len(lats) > 0 {
		fmt.Printf("  latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
			stats.Percentile(lats, 50), stats.Percentile(lats, 90), stats.Percentile(lats, 99), stats.Max(lats))
	}
	fmt.Printf("  placement digest: %s\n", rep.Digest)
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geoload:", err)
	os.Exit(1)
}
