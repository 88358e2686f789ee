package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// Each solve gets the share of GOMAXPROCS that a full pool leaves it,
// never less than one worker.
func TestClampSolverWorkers(t *testing.T) {
	cases := []struct {
		pool, maxProcs, want int
	}{
		{4, 16, 4}, // fills the machine exactly
		{3, 10, 3}, // rounds down
		{1, 8, 8},  // a single-worker pool gets the whole machine
		{2, 2, 1},  // one goroutine per solve
		{4, 2, 1},  // the default pool on 2 cores oversubscribes: floor 1
		{16, 8, 1}, // floor 1 however far the pool oversubscribes
	}
	for _, c := range cases {
		if got := clampSolverWorkers(c.pool, c.maxProcs); got != c.want {
			t.Errorf("clampSolverWorkers(pool=%d, maxProcs=%d) = %d, want %d",
				c.pool, c.maxProcs, got, c.want)
		}
	}
}

// /metrics must expose both the pool size and the per-solve parallelism
// derived from it, so operators can audit the product against the machine.
func TestMetricsExposeWorkerKnobs(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var v View
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.PoolWorkers != 2 {
		t.Errorf("pool_workers = %d, want 2", v.PoolWorkers)
	}
	if want := max(1, runtime.GOMAXPROCS(0)/2); v.SolverWorkers != want {
		t.Errorf("solver_workers = %d, want %d", v.SolverWorkers, want)
	}
}

// A solve through the service must produce the same placement digest no
// matter the per-solve parallelism — the property that keeps the worker
// count out of the request fingerprint and the geoload digest contract
// intact. On the test's equal-capacity snapshot the unpinned request's
// orders all share one fill key, so its search runs one worker at any
// count; pinning two processes to different sites makes every order its
// own class, so the pinned request splits its search across the workers.
func TestSolveDigestIndependentOfSolverWorkers(t *testing.T) {
	pins := make([]int, 64)
	for i := range pins {
		pins[i] = -1
	}
	pins[0], pins[63] = 0, 3
	for _, req := range []MapRequest{
		{Workload: "LU", Procs: 64, Seed: 7},
		{Workload: "LU", Procs: 64, Seed: 7, Constraint: pins},
	} {
		digests := map[string]bool{}
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			srv := newTestServer(t, Config{Workers: 1})
			// Set the count directly so workers > GOMAXPROCS still runs parallel.
			srv.solverWorkers = workers
			var resp MapResponse
			postMap(t, srv.Handler(), req, http.StatusOK, &resp)
			digests[resp.Digest] = true
		}
		if len(digests) != 1 {
			t.Errorf("pinned=%t: placement digest varies with solver workers: %v", req.Constraint != nil, digests)
		}
	}
}
