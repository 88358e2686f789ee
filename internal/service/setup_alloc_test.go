package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
)

// setUpAllocBudget bounds the bytes one server set-up allocates: a fresh
// Server over the paper's four EC2 regions at 160 nodes each, then one
// 256-process geo solve per workload preset through its Handler. Only
// what outlives a solve should be allocated: each preset's profiled CSR
// (~70 KB), its cached request and result, and the server itself.
// Measured at 739,824 bytes on linux/amd64 with go1.24; the budget leaves
// 22% slack for toolchain and library drift. Before each solve's scratch
// was recycled, the same set-up allocated 2,571,112 bytes.
const setUpAllocBudget = 900_000

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool

// setUpPresets are the seven workload presets, in the order a serving
// set-up warms them.
var setUpPresets = []string{"LU", "BT", "SP", "K-means", "DNN", "CG", "MG"}

// TestSetUpAllocationBudget gates the allocation of a cold set-up:
// profiling, freezing and mapping seven presets must allocate no more
// than setUpAllocBudget bytes once a first set-up has filled the
// packages' scratch pools. The collector is off from the warm set-up on,
// so a GC cannot empty a pool mid-run and the figure does not depend on
// heap size. Not parallel: TotalAlloc counts every goroutine of the
// process, and the test sets GOMAXPROCS.
func TestSetUpAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles seven presets twice")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of what it is given")
	}
	bodies := make([][]byte, len(setUpPresets))
	for k, w := range setUpPresets {
		body, err := json.Marshal(MapRequest{Workload: w, Procs: 256, Algorithm: "geo", Seed: -int64(k) - 1})
		if err != nil {
			t.Fatal(err)
		}
		bodies[k] = body
	}
	setUp := func() {
		st, err := NewStore(testSnapshot(t, 640, 1))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(Config{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		for k, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("preset %s: status %d (body %s)", setUpPresets[k], rec.Code, rec.Body.String())
			}
		}
	}
	// One P: a sync.Pool Get does not see what another P put in its
	// private slot, so with several the figure would depend on where the
	// scheduler ran each solve. Two collections then empty every pool of
	// what earlier tests left, so the measured set-up draws on what the
	// warm one returned.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	setUp()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	setUp()
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("set-up allocated %d bytes (budget %d)", alloc, setUpAllocBudget)
	if alloc > setUpAllocBudget {
		t.Errorf("set-up allocated %d bytes, budget %d", alloc, setUpAllocBudget)
	}
}
