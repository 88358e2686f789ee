package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestMetricNamesMatchBenchmarkJSON holds the
// two together.
type metricSpec struct {
	name, unit, better string
	// moves is the metric a per-layer metric should move (an end-to-end
	// one or a load.* figure), and on names the workloads where it does;
	// both are empty for end-to-end metrics.
	moves, on string
}

// endToEnd metrics are measured with tracing off. Request timing is not
// among them: on the 2-core host the benchmark was built on, neighbours
// slowed the same code by up to 1.8× for minutes at a time, and even over
// the faster half of each run ten-seed spreads reached 0.28 for serve-miss
// p50, 0.26 for its throughput, 0.41 for serve-hit p99 and 0.26 for
// serve-churn p99 — past any bound a regression gate may take. The traced
// run reports them as load.* metrics instead.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "cost_gmean", unit: "cost", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer metrics come from the traced run. A layer a workload does not
// reach reports 0; comm.* and multilevel.* come from the multilevel
// replay in serve-miss's traced run.
var perLayer = []metricSpec{
	{"service.decode_us", "us", "lower", "load.tput_rps,load.lat_p50_ms", "serve-hit"},
	{"service.fingerprint_us", "us", "lower", "load.tput_rps,load.lat_p50_ms", "serve-hit"},
	{"service.encode_us", "us", "lower", "load.tput_rps,load.lat_p50_ms", "serve-hit"},
	{"service.allocs_per_req", "count", "lower", "load.tput_rps,load.lat_p50_ms", "serve-hit"},
	{"service.alloc_kb_per_req", "KB", "lower", "load.tput_rps,load.lat_p50_ms", "serve-hit"},
	{"service.hit_ratio", "ratio", "higher", "load.lat_p50_ms,load.lat_p99_ms", "serve-churn"},
	{"service.dedup_ratio", "ratio", "higher", "load.lat_p99_ms", "serve-churn"},
	{"service.solves", "count", "lower", "load.lat_p99_ms", "serve-churn"},
	{"service.shed_frac", "ratio", "lower", "load.lat_p99_ms", "serve-churn"},
	{"service.wait_ms_p50", "ms", "lower", "load.lat_p50_ms", "serve-churn"},
	{"service.wait_ms_p99", "ms", "lower", "load.lat_p99_ms", "serve-churn"},
	{"service.publish_ms", "ms", "lower", "load.lat_p99_ms", "serve-churn"},
	{"service.server_ms_p50", "ms", "lower", "load.lat_p50_ms", "serve-hit,serve-miss,serve-churn"},
	{"service.server_ms_p99", "ms", "lower", "load.lat_p99_ms", "serve-hit,serve-miss,serve-churn"},
	{"service.solve_ms_p50", "ms", "lower", "load.lat_p50_ms", "serve-hit,serve-miss,serve-churn"},
	{"service.solve_ms_p99", "ms", "lower", "load.lat_p99_ms", "serve-hit,serve-miss,serve-churn"},
	{"service.healthz_us", "us", "lower", "load.lat_p50_ms", "serve-hit,serve-miss,serve-churn"},
	{"service.problem_us", "us", "lower", "load.lat_p50_ms", "serve-miss"},
	{"service.digest_us", "us", "lower", "load.lat_p50_ms", "serve-miss"},
	{"apps.profile_ms", "ms", "lower", "setup_s", "serve-miss,serve-churn"},
	{"comm.build_ms", "ms", "lower", "setup_s", "serve-miss"},
	{"comm.prewarm_ms", "ms", "lower", "setup_s", "serve-miss"},
	{"core.group_us", "us", "lower", "load.tput_rps,load.lat_p50_ms", "serve-miss"},
	{"core.map_ms", "ms", "lower", "load.tput_rps,load.lat_p50_ms,load.lat_p99_ms", "serve-miss,serve-churn"},
	{"core.check_us", "us", "lower", "load.tput_rps,load.lat_p50_ms", "serve-miss"},
	{"core.cost_us", "us", "lower", "load.tput_rps,load.lat_p50_ms", "serve-miss"},
	{"core.allocs_per_map", "count", "lower", "load.tput_rps,load.lat_p50_ms", "serve-miss"},
	{"multilevel.csr_ms", "ms", "lower", "load.lat_p50_ms", "serve-miss"},
	{"multilevel.solve_ms", "ms", "lower", "load.lat_p50_ms,cost_gmean", "serve-miss"},
	{"multilevel.levels", "count", "lower", "load.lat_p50_ms,cost_gmean", "serve-miss"},
	{"multilevel.coarsest_n", "count", "lower", "load.lat_p50_ms,cost_gmean", "serve-miss"},
	{"multilevel.passes", "count", "lower", "load.lat_p50_ms,cost_gmean", "serve-miss"},
	{"multilevel.moves", "count", "lower", "load.lat_p50_ms,cost_gmean", "serve-miss"},
	{"multilevel.swaps", "count", "lower", "load.lat_p50_ms,cost_gmean", "serve-miss"},
	{"multilevel.allocs_per_solve", "count", "lower", "load.lat_p50_ms", "serve-miss"},
	{"load.tput_rps", "req/s", "higher", "", "serve-hit,serve-miss"},
	{"load.lat_p50_ms", "ms", "lower", "", "serve-hit,serve-miss,serve-churn"},
	{"load.lat_p99_ms", "ms", "lower", "", "serve-hit,serve-miss,serve-churn"},
	{"load.late_ms_p99", "ms", "lower", "", "serve-churn"},
	{"trace.overhead_frac", "ratio", "lower", "", "serve-hit,serve-miss,serve-churn"},
}

// minTailSamples is the fewest samples a p99 is reported from.
const minTailSamples = 1000

// percentile is the p-th percentile (0..100) by linear interpolation
// between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// fasterHalf returns the ceil(n/2) groups of lowest cost. The host's CPU
// speed swings by up to 1.8× over seconds (the same Map call took 3.0 to
// 9.3 ms in 0.25-s windows of one 150-s trace, with CPU time tracking
// wall time); time metrics are taken over the faster half of a run so
// that they measure the program rather than its neighbours.
func fasterHalf[T any](groups []T, cost func(T) float64) []T {
	sorted := append([]T(nil), groups...)
	sort.SliceStable(sorted, func(a, b int) bool { return cost(sorted[a]) < cost(sorted[b]) })
	return sorted[:(len(sorted)+1)/2]
}

// fastMedian is the median of the faster (lower) half of xs.
func fastMedian(xs []float64) float64 {
	return median(fasterHalf(xs, func(x float64) float64 { return x }))
}

// p99 returns the 99th percentile, or false when xs holds fewer than
// minTailSamples samples: a rarer tail would rest on a handful of them.
func p99(xs []float64) (float64, bool) {
	if len(xs) < minTailSamples {
		return 0, false
	}
	return percentile(xs, 99), true
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
