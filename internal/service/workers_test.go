package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

func TestClampSolverWorkers(t *testing.T) {
	cases := []struct {
		pool, requested, maxProcs, want int
	}{
		{4, 0, 16, 4}, // derived: fills the machine exactly
		{4, 0, 2, 1},  // pool alone oversubscribes: floor 1
		{4, 2, 16, 2}, // explicit within budget: honored
		{4, 8, 16, 4}, // explicit beyond budget: clamped
		{2, 3, 8, 3},  // 2×3 ≤ 8: honored
		{1, 64, 8, 8}, // single worker pool gets the whole machine at most
		{16, 1, 8, 1}, // floor 1 even when the pool already oversubscribes
		{3, 0, 10, 3}, // derived rounds down
	}
	for _, c := range cases {
		if got := clampSolverWorkers(c.pool, c.requested, c.maxProcs); got != c.want {
			t.Errorf("clampSolverWorkers(pool=%d, requested=%d, maxProcs=%d) = %d, want %d",
				c.pool, c.requested, c.maxProcs, got, c.want)
		}
	}
}

func TestNewServerRejectsNegativeSolverWorkers(t *testing.T) {
	st, err := NewStore(testSnapshot(t, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(Config{Store: st, SolverWorkers: -1}); err == nil {
		t.Error("negative SolverWorkers accepted")
	}
}

// /metrics must expose both parallelism knobs so operators can verify the
// pool × per-solve product against the machine.
func TestMetricsExposeWorkerKnobs(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, SolverWorkers: 1})
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
	if v.SolverWorkers != 1 {
		t.Errorf("solver_workers = %d, want 1", v.SolverWorkers)
	}
}

// A solve through the service must produce the same placement digest no
// matter the per-solve parallelism — the property that keeps SolverWorkers
// out of the request fingerprint and the geoload digest contract intact.
func TestSolveDigestIndependentOfSolverWorkers(t *testing.T) {
	req := MapRequest{Workload: "LU", Procs: 64, Seed: 7}
	digests := map[string]bool{}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		srv := newTestServer(t, Config{Workers: 1, SolverWorkers: workers})
		// Bypass the clamp so workers > GOMAXPROCS still runs parallel.
		srv.solverWorkers = workers
		var resp MapResponse
		postMap(t, srv.Handler(), req, http.StatusOK, &resp)
		digests[resp.Digest] = true
	}
	if len(digests) != 1 {
		t.Errorf("placement digest varies with solver workers: %v", digests)
	}
}
