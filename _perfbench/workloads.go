package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"geoprocmap/internal/core"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/service"
)

// maxRate bounds how many requests per second a closed loop can issue;
// the stream is generated that long before timing starts. One connection
// carries ~360 hits/s and ~200 solves/s on a 2-core host; the margin is
// kept small because the stream and its samples count in peak_rss_mb.
var maxRate = map[string]float64{"serve-hit": 2000, "serve-miss": 1000}

// serveInputFor generates a serve workload's input. The closed loops use
// one connection: with two, requests overlapped on the two cores half of
// the time, and p50 sat between the overlapped and the lone latency
// mode. The open loop uses one connection per core so that a solve does
// not stall the hits behind it more than the convoy does.
func serveInputFor(name string, cfg config) (*serveInput, error) {
	n := int(math.Ceil(cfg.dur.Seconds()*maxRate[name])) + 256
	var (
		in  *serveInput
		err error
	)
	switch name {
	case "serve-hit":
		in, err = hitInput(cfg.seed, n)
	case "serve-miss":
		in, err = missInput(cfg.seed, n, len(netmodel.PaperEC2Regions))
	default:
		var cloud *netmodel.Cloud
		if cloud, err = servedCloud(); err != nil {
			return nil, err
		}
		in, err = churnInput(cfg.seed, cfg.dur.Seconds(), model{LT: rows(cloud.LT), BT: rows(cloud.BT)})
	}
	if err != nil {
		return nil, err
	}
	in.conns = 1
	if in.open {
		in.conns = runtime.NumCPU()
	}
	return in, nil
}

// setUp starts a server and solves the warm templates, repeatedly (see
// moreSetups) when timed, else once; the last server stays up. It
// returns the median of the faster half of the set-up times.
func setUp(in *serveInput, timed bool) (*server, float64, error) {
	var (
		s    *server
		secs []float64
	)
	for len(secs) == 0 || (timed && moreSetups(secs)) {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		if s, err = startServer(in.conns); err != nil {
			return nil, 0, err
		}
		if err := warmUp(s, in); err != nil {
			return nil, 0, errors.Join(err, s.close())
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return s, fastMedian(secs), nil
}

// checkHitRatio holds each workload to its stated cache behaviour.
func checkHitRatio(name string, v *verdict, rep *report) {
	served := v.attempted - v.failed
	if served == 0 {
		rep.mismatch("no request was served")
		return
	}
	missShare := float64(served-v.cached) / float64(served)
	switch {
	case name == "serve-hit" && v.cached != served:
		rep.mismatch("serve-hit: %d of %d answers were not cache hits", served-v.cached, served)
	case name == "serve-miss" && v.cached != 0:
		rep.mismatch("serve-miss: %d answers were cache hits", v.cached)
	case name == "serve-churn" && (missShare < 0.10 || missShare > 0.40):
		rep.mismatch("serve-churn: miss share %.3f outside [0.10, 0.40]", missShare)
	}
}

func runServe(name string, cfg config) (*report, error) {
	in, err := serveInputFor(name, cfg)
	if err != nil {
		return nil, err
	}
	c, err := newChecker(in)
	if err != nil {
		return nil, err
	}
	s, setupS, err := setUp(in, true)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pa, err := runPhase(s, in, cfg.dur, nil)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	complete(s, in, pa)
	if err := s.close(); err != nil {
		return nil, err
	}
	va := verify(c, in, pa)
	rep := &report{attempted: va.attempted, failed: va.failed, mismatches: va.mismatches, digest: va.digest}
	checkHitRatio(name, va, rep)
	rep.metrics = map[string]float64{
		"setup_s":     setupS,
		"cost_gmean":  costGmean(va.costs),
		"peak_rss_mb": peakRSSMB(),
	}
	if !cfg.trace {
		return rep, nil
	}
	return rep, traceServe(name, cfg, in, c, rep, pa, &ms0, &ms1)
}

// traceServe is the traced half of a serve run: the load.* timings of the
// untraced phase pa, then the same phase on a fresh server with spans
// recorded and /metrics read around it, then the single-goroutine layer
// replay. Its digests must equal the untraced ones.
func traceServe(name string, cfg config, in *serveInput, c *checker, rep *report, pa *phase, ms0, ms1 *runtime.MemStats) error {
	m := map[string]float64{}
	for _, s := range perLayer {
		m[s.name] = 0
	}
	rep.metrics = m
	lat, untracedTput := timed(in, pa)
	m["load.tput_rps"] = untracedTput
	m["load.lat_p50_ms"] = median(lat)
	if v, ok := p99(lat); ok {
		m["load.lat_p99_ms"] = v
	} else {
		fmt.Fprintf(cfg.log, "perfbench: %d samples < %d: load.lat_p99_ms left at 0\n", len(lat), minTailSamples)
	}
	if served := pa.done; served > 0 {
		m["service.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(served)
		m["service.alloc_kb_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(served)
	}

	s, _, err := setUp(in, false)
	if err != nil {
		return err
	}
	rec := newRecorder()
	before, err := s.metrics()
	if err != nil {
		return errors.Join(err, s.close())
	}
	pb, err := runPhase(s, in, cfg.dur, rec)
	if err != nil {
		return errors.Join(err, s.close())
	}
	id := rec.start("http.metrics", 0, -1)
	after, err := s.metrics()
	rec.end(id)
	if err != nil {
		return errors.Join(err, s.close())
	}
	healthz, err := healthzFloor(s, 200)
	complete(s, in, pb)
	if err := errors.Join(err, s.close()); err != nil {
		return err
	}
	vb := verify(c, in, pb)
	rep.mismatches = append(rep.mismatches, vb.mismatches...)
	checkHitRatio(name, vb, rep)
	if vb.digest != rep.digest {
		rep.mismatch("traced digest %.12s differs from untraced %.12s", vb.digest, rep.digest)
	}
	if err := replayServe(in, c, rec); err != nil {
		rep.mismatch("%v", err)
	}

	requests := float64(after.Requests - before.Requests)
	m["service.hit_ratio"] = float64(after.CacheHits-before.CacheHits) / requests
	m["service.dedup_ratio"] = float64(after.Deduped-before.Deduped) / requests
	m["service.solves"] = float64(after.Solves - before.Solves)
	m["service.shed_frac"] = float64(after.Rejected-before.Rejected) / requests
	m["service.wait_ms_p50"] = median(vb.waitMs)
	m["service.wait_ms_p99"] = percentile(vb.waitMs, 99)
	m["service.publish_ms"] = median(pb.publishMs)
	m["service.server_ms_p50"] = after.RequestLatency.P50
	m["service.server_ms_p99"] = after.RequestLatency.P99
	m["service.solve_ms_p50"] = after.SolveLatency.P50
	m["service.solve_ms_p99"] = after.SolveLatency.P99
	m["service.healthz_us"] = healthz
	m["load.late_ms_p99"] = percentile(pb.late, 99)
	if _, tput := timed(in, pb); tput > 0 {
		m["trace.overhead_frac"] = untracedTput/tput - 1
	}
	self := selfByName(rec.spans)
	for metric, span := range map[string]string{
		"service.decode_us":      "service.decode",
		"service.fingerprint_us": "service.routing_key",
		"service.problem_us":     "service.problem",
		"service.digest_us":      "service.digest",
		"service.encode_us":      "service.encode",
		"core.group_us":          "core.group",
		"core.check_us":          "core.check",
		"core.cost_us":           "core.cost",
	} {
		m[metric] = median(self[span])
	}
	m["core.map_ms"] = median(self["core.map"]) / 1e3
	m["apps.profile_ms"] = median(self["apps.profile"]) / 1e3
	m["core.allocs_per_map"] = median(allocsOf(rec.spans, "core.map"))
	if name == "serve-miss" {
		traceMultilevel(cfg.seed, m, rep, rec)
	}
	return writeSpans(cfg.spanFile(name), rec.spans)
}

func allocsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Allocs))
		}
	}
	return out
}

// largeMapperSeed is the K-means seed of the multilevel solve: the
// instance varies with the workload seed, the mapper does not.
const largeMapperSeed = 1

// traceMultilevel measures the multilevel layer, which no serve workload
// reaches: the 32-site × 100k-process instance generated from the run's
// seed goes through FromComm and Solve, whose placement must equal
// core.MultilevelGeoMapper.Map's. The layer is traced but not a timed
// workload of its own: on a 2-core host its Map times settled near 775
// or near 1100 ms from run to run with the neighbours' memory traffic, a
// ten-seed spread of 0.30.
func traceMultilevel(seed int64, m map[string]float64, rep *report, rec *recorder) {
	in := newLargeInput(seed)
	pl, err := (&core.MultilevelGeoMapper{Kappa: 4, Seed: largeMapperSeed}).Map(in.problem(in.graph()))
	if err != nil {
		rep.mismatch("multilevel Map: %v", err)
		return
	}
	st, err := replayLarge(in, largeMapperSeed, service.PlacementDigest(pl), rec)
	if err != nil {
		rep.mismatch("%v", err)
		return
	}
	self := selfByName(rec.spans)
	m["comm.build_ms"] = median(self["comm.build"]) / 1e3
	m["comm.prewarm_ms"] = median(self["comm.prewarm"]) / 1e3
	m["multilevel.csr_ms"] = median(self["multilevel.csr"]) / 1e3
	m["multilevel.solve_ms"] = median(self["multilevel.solve"]) / 1e3
	m["multilevel.allocs_per_solve"] = median(allocsOf(rec.spans, "multilevel.solve"))
	m["multilevel.levels"] = float64(st.Levels)
	m["multilevel.coarsest_n"] = float64(st.CoarsestN)
	m["multilevel.passes"] = float64(st.Passes)
	m["multilevel.moves"] = float64(st.Moves)
	m["multilevel.swaps"] = float64(st.Swaps)
}
