package service

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"geoprocmap/internal/core"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/stats"
)

// scratchCase is one request of TestSolvesIgnoreRecycledScratch with the
// snapshot it is solved against.
type scratchCase struct {
	name string
	req  MapRequest
	snap *Snapshot
}

// scratchCases returns requests of every shape a solve's recycled
// scratch must not carry between: explicit-edge requests at 512, 96, 300
// and 640 processes and a sparse one at 400, whose graphs' rows go back
// to comm's pool, the seven
// presets at 256 processes, a pinned request and a site-set request on
// the paper's four regions, and a multilevel solve on six.
func scratchCases(t *testing.T) []scratchCase {
	four := testSnapshot(t, 640, 1)
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge",
		[]string{"us-east-1", "us-west-1", "us-west-2", "eu-west-1", "eu-central-1", "ap-southeast-1"}, 64, netmodel.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	six := SnapshotFromCloud(cloud)

	var cases []scratchCase
	for k, n := range []int{512, 96, 300, 640} {
		rng := stats.NewRand(int64(k) + 1)
		var edges []Edge
		for i := 0; i < n; i++ {
			edges = append(edges,
				Edge{Src: i, Dst: (i + 1) % n, Volume: 2e6 * (1 + rng.Float64()), Msgs: 20},
				Edge{Src: i, Dst: (i + n/4) % n, Volume: 5e5 * (1 + rng.Float64()), Msgs: 8})
			if j := i ^ 1<<uint(i%9); j < n && j != i {
				edges = append(edges, Edge{Src: i, Dst: j, Volume: 2e5 * (1 + rng.Float64()), Msgs: 4})
			}
		}
		cases = append(cases, scratchCase{fmt.Sprintf("edges/%d", n), MapRequest{Procs: n, Edges: edges, Seed: int64(k) + 3}, four})
	}
	// Two processes in three send nothing, so most out rows are empty and
	// take their bounds from the row before.
	sparse := MapRequest{Procs: 400, Seed: 7}
	for i := 0; i < sparse.Procs; i += 3 {
		sparse.Edges = append(sparse.Edges,
			Edge{Src: i, Dst: (i + 1) % 400, Volume: 1e6 + float64(i), Msgs: 10},
			Edge{Src: i, Dst: (i + 7) % 400, Volume: 3e5, Msgs: 2})
	}
	cases = append(cases, scratchCase{"edges/sparse-400", sparse, four})
	for k, w := range setUpPresets {
		cases = append(cases, scratchCase{w + "/256", MapRequest{Workload: w, Procs: 256, Seed: int64(k)}, four})
	}
	pinned := MapRequest{Workload: "LU", Procs: 256, Seed: 5, Constraint: make([]int, 256)}
	for p := range pinned.Constraint {
		pinned.Constraint[p] = core.Unconstrained
	}
	pinned.Constraint[7], pinned.Constraint[100], pinned.Constraint[255] = 2, 0, 3
	sets := MapRequest{Workload: "SP", Procs: 256, Seed: 6, Allowed: make([][]int, 256)}
	for p := 0; p < 256; p += 3 {
		sets.Allowed[p] = []int{p % 4, (p + 1) % 4}
	}
	return append(cases,
		scratchCase{"pinned", pinned, four},
		scratchCase{"site-sets", sets, four},
		scratchCase{"multilevel/6-sites", MapRequest{Workload: "MG", Procs: 300, Seed: 8, Algorithm: "multilevel"}, six})
}

// solveCase solves c at the given order-search workers as the server
// does, profiling a preset afresh (no memo) and releasing an explicit
// graph's rows, and returns its placement digest and the bits of its
// cost.
func solveCase(c scratchCase, workers int) (string, uint64, error) {
	res, err := solveRequest(&c.req, c.snap, nil, workers)
	if err != nil {
		return "", 0, err
	}
	return res.Digest, math.Float64bits(res.Cost), nil
}

// TestSolvesIgnoreRecycledScratch is the regression test for the scratch
// pools of comm, multilevel and core: each solve takes call logs, graph
// rows, fill tables, fills and generators that a solve of another shape
// (process count, edge count, site count, pins, site sets, mapper) left
// behind. The requests
// are solved in order on one goroutine, then in reverse order, then on
// two goroutines at once, one at one order-search worker and one at two;
// every digest and cost bit must equal the first run's. make race runs
// it under the race detector.
func TestSolvesIgnoreRecycledScratch(t *testing.T) {
	cases := scratchCases(t)
	type answer struct {
		digest string
		cost   uint64
	}
	want := make([]answer, len(cases))
	for i, c := range cases {
		d, cost, err := solveCase(c, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = answer{d, cost}
	}
	check := func(run string, i int, workers int) error {
		d, cost, err := solveCase(cases[i], workers)
		if err != nil {
			return fmt.Errorf("%s: %s: %v", run, cases[i].name, err)
		}
		if got := (answer{d, cost}); got != want[i] {
			return fmt.Errorf("%s: %s: digest %.12s cost bits %#x, first run %.12s %#x", run, cases[i].name, d, cost, want[i].digest, want[i].cost)
		}
		return nil
	}
	for i := len(cases) - 1; i >= 0; i-- {
		if err := check("reverse", i, 1); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g, workers := range []int{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cases {
				if err := check(fmt.Sprintf("concurrent at %d workers", workers), i, workers); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
