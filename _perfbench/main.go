// Command perfbench is the repository benchmark. It drives the mapping
// service (internal/service) over loopback HTTP, verifies every answer,
// and prints one JSON result line:
//
//	bash _perfbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - serve-hit: closed loop over 32 explicit-edge 512-process requests,
//     all solved during set-up, so every timed request is a cache hit.
//   - serve-miss: closed loop of novel preset requests, each one solve.
//   - serve-churn: open loop at a fixed rate mixing a hot pool with novel
//     requests while drifted snapshots are published.
//
// With --trace 0 the run measures the end-to-end metrics. With --trace 1
// it reports the per-layer metrics: the untraced phase's request timings
// (load.*), then the timed phase again with spans around every call the
// benchmark makes, then the check set replayed on one goroutine through
// each layer's public functions; serve-miss's traced run also replays a
// 32-site × 100k-process multilevel solve. The spans go to
// .bench_build/spans. Every run checks that placements pass
// CheckPlacement on problems the benchmark builds itself, that reported
// costs equal CostParts and digests PlacementDigest, and prints the check
// set's placement digests folded in request order. Any mismatch exits 1.
//
// The directory starts with an underscore so that `go ... ./...` and
// geolint, run from the repository root, leave this separate module alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// A run sets up at least minSetupReps times, and more while the set-ups
// so far took under setupBudget in total; setup_s is the median of the
// faster half. A 40-ms set-up varied from 30 to 70 ms within one run, so
// short set-ups are repeated over seconds.
const (
	minSetupReps = 3
	maxSetupReps = 100
	setupBudget  = 3 * time.Second
)

// moreSetups reports whether another set-up repetition should run after
// the ones timed in secs.
func moreSetups(secs []float64) bool {
	total := 0.0
	for _, s := range secs {
		total += s
	}
	return len(secs) < minSetupReps || (len(secs) < maxSetupReps && total < setupBudget.Seconds())
}

type config struct {
	seed     int64
	dur      time.Duration
	trace    bool
	spansDir string
	log      io.Writer
}

// report is what a workload run hands back for printing.
type report struct {
	attempted, failed int
	mismatches        []string
	metrics           map[string]float64
	digest            string
}

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"serve-hit":   func(c config) (*report, error) { return runServe("serve-hit", c) },
	"serve-miss":  func(c config) (*report, error) { return runServe("serve-miss", c) },
	"serve-churn": func(c config) (*report, error) { return runServe("serve-churn", c) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "serve-hit, serve-miss or serve-churn")
	seed := fs.Int64("seed", 1, "workload seed: the only source of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (serve-hit, serve-miss, serve-churn), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	fmt.Fprintln(stdout, hostFacts())
	cfg := config{
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spansDir: *spans,
		log:      stderr,
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for i, m := range rep.mismatches {
		if i == 10 {
			fmt.Fprintf(stderr, "perfbench: … %d more mismatches\n", len(rep.mismatches)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: mismatch: %s\n", m)
	}
	fmt.Fprintf(stdout, "digest %s seed=%d %s\n", *workload, *seed, rep.digest)
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	out := result{
		Correct:   len(rep.mismatches) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]value{},
	}
	for _, s := range specs {
		if v, ok := rep.metrics[s.name]; ok {
			out.Metrics[s.name] = value{Value: v, Unit: s.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// hostFacts records what the numbers depend on: cores, GOMAXPROCS, the
// Go version and the commit the binary was built from.
func hostFacts() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.modified" && kv.Value == "true" {
				commit += "+modified"
			}
		}
	}
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// spanFile is where a traced run writes its spans.
func (c config) spanFile(workload string) string {
	return filepath.Join(c.spansDir, fmt.Sprintf("%s-seed%d.jsonl", workload, c.seed))
}
