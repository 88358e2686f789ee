package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoprocmap/internal/core"
	"geoprocmap/internal/faults"
)

// newTestServer builds a service over the paper's 4-site cloud with
// 16 nodes per site.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	st, err := NewStore(testSnapshot(t, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// postMap sends a MapRequest and decodes the response body into out.
func postMap(t *testing.T, h http.Handler, req MapRequest, wantStatus int, out any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/map", bytes.NewReader(body)))
	if rec.Code != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", rec.Code, wantStatus, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding response: %v (body %s)", err, rec.Body.String())
		}
	}
}

func TestMapSolveAndCacheHit(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	req := MapRequest{Workload: "LU", Procs: 64, Seed: 1}

	var first MapResponse
	postMap(t, h, req, http.StatusOK, &first)
	if first.Cached {
		t.Error("first request reported cached")
	}
	if first.SnapshotVersion != 1 {
		t.Errorf("snapshot version = %d, want 1", first.SnapshotVersion)
	}
	if len(first.Placement) != 64 || first.Digest == "" || first.Cost <= 0 {
		t.Fatalf("implausible result: %d procs, digest %q, cost %g", len(first.Placement), first.Digest, first.Cost)
	}
	if first.Algorithm != "Geo-distributed" {
		t.Errorf("algorithm = %q", first.Algorithm)
	}

	var second MapResponse
	postMap(t, h, req, http.StatusOK, &second)
	if !second.Cached {
		t.Error("identical request missed the cache")
	}
	if second.Digest != first.Digest || second.SnapshotVersion != first.SnapshotVersion {
		t.Error("cached result differs from the original")
	}

	view := srv.metrics.Snapshot(0, 0)
	if view.CacheHits != 1 || view.Solves != 1 || view.Requests != 2 {
		t.Errorf("metrics = %+v, want 1 hit / 1 solve / 2 requests", view)
	}
}

func TestMapDeterministicAcrossServers(t *testing.T) {
	req := MapRequest{Workload: "LU", Procs: 64, Seed: 7, Kappa: 3}
	digests := make([]string, 2)
	for i := range digests {
		srv := newTestServer(t, Config{})
		var resp MapResponse
		postMap(t, srv.Handler(), req, http.StatusOK, &resp)
		digests[i] = resp.Digest
	}
	if digests[0] != digests[1] {
		t.Errorf("same request on fresh servers produced %s vs %s", digests[0], digests[1])
	}
}

// TestMapMultilevelAlgorithm exercises the multilevel mapper through the
// full service path: the request validates, the solver pool hands it the
// per-solve worker budget, and — because the refiner's deterministic
// reduction is worker-count independent — servers with different
// SolverWorkers settings return identical digests.
func TestMapMultilevelAlgorithm(t *testing.T) {
	req := MapRequest{Workload: "LU", Procs: 64, Seed: 5, Algorithm: "multilevel"}
	digests := make([]string, 2)
	for i, sw := range []int{1, 2} {
		srv := newTestServer(t, Config{Workers: 1, SolverWorkers: sw})
		var resp MapResponse
		postMap(t, srv.Handler(), req, http.StatusOK, &resp)
		if resp.Algorithm != "Multilevel" {
			t.Errorf("algorithm = %q, want Multilevel", resp.Algorithm)
		}
		if len(resp.Placement) != 64 || resp.Cost <= 0 {
			t.Fatalf("implausible result: %d procs, cost %g", len(resp.Placement), resp.Cost)
		}
		digests[i] = resp.Digest
	}
	if digests[0] != digests[1] {
		t.Errorf("solver workers changed the multilevel digest: %s vs %s", digests[0], digests[1])
	}
}

func TestMapConstraintsAndExplicitEdges(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	// Pin process 0 to site 2 and restrict process 1 to sites {1, 2}.
	req := MapRequest{
		Workload:   "LU",
		Procs:      16,
		Seed:       1,
		Constraint: append([]int{2}, make([]int, 15)...),
		Allowed:    [][]int{nil, {1, 2}},
	}
	for i := 1; i < 16; i++ {
		req.Constraint[i] = -1
	}
	req.Allowed = append(req.Allowed, make([][]int, 14)...)
	var resp MapResponse
	postMap(t, h, req, http.StatusOK, &resp)
	if resp.Placement[0] != 2 {
		t.Errorf("pinned process placed at %d, want 2", resp.Placement[0])
	}
	if s := resp.Placement[1]; s != 1 && s != 2 {
		t.Errorf("restricted process placed at %d, want 1 or 2", s)
	}

	// Explicit edge list instead of a preset.
	edge := MapRequest{
		Procs: 8,
		Seed:  1,
		Edges: []Edge{{Src: 0, Dst: 1, Volume: 1e6, Msgs: 10}, {Src: 2, Dst: 3, Volume: 5e5, Msgs: 4}},
	}
	var eresp MapResponse
	postMap(t, h, edge, http.StatusOK, &eresp)
	if len(eresp.Placement) != 8 {
		t.Errorf("edge-list placement has %d entries", len(eresp.Placement))
	}
	// Edge order must not affect the fingerprint: reversed edges hit.
	edge.Edges = []Edge{edge.Edges[1], edge.Edges[0]}
	var ecached MapResponse
	postMap(t, h, edge, http.StatusOK, &ecached)
	if !ecached.Cached {
		t.Error("edge order changed the fingerprint")
	}
	// Also when two edges share a (src, dst) pair: they build the same
	// graph in either order.
	edge.Edges = []Edge{{Src: 0, Dst: 1, Volume: 1, Msgs: 1}, {Src: 0, Dst: 1, Volume: 2, Msgs: 1}}
	var pair MapResponse
	postMap(t, h, edge, http.StatusOK, &pair)
	edge.Edges = []Edge{edge.Edges[1], edge.Edges[0]}
	var pcached MapResponse
	postMap(t, h, edge, http.StatusOK, &pcached)
	if !pcached.Cached || pcached.Digest != pair.Digest {
		t.Error("the order of two edges on one (src, dst) pair changed the fingerprint")
	}
}

// Three edges on one (src, dst) pair sum to different graphs in
// different orders: comm.Graph sums them in request order, and
// (1e16 + 1) + 1 rounds to 1e16 while (1 + 1) + 1e16 does not. The two
// requests must not share a cache key, and each answer must cost what a
// fresh solve of its own request costs.
func TestMapRunOfThreeEdgesKeysInRequestOrder(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	req := func(volumes ...float64) MapRequest {
		r := MapRequest{Procs: 8, Seed: 1, Edges: []Edge{{Src: 2, Dst: 3, Volume: 5e5, Msgs: 4}}}
		for _, v := range volumes {
			r.Edges = append(r.Edges, Edge{Src: 0, Dst: 1, Volume: v, Msgs: 1})
		}
		return r
	}
	big, small := req(1e16, 1, 1), req(1, 1, 1e16)
	if fingerprint(&big, 1) == fingerprint(&small, 1) {
		t.Error("edges (0,1) with volumes 1e16, 1, 1 and 1, 1, 1e16 share a cache key")
	}
	var first, second MapResponse
	postMap(t, h, big, http.StatusOK, &first)
	postMap(t, h, small, http.StatusOK, &second)
	for _, c := range []struct {
		name string
		req  MapRequest
		got  MapResponse
	}{{"1e16, 1, 1", big, first}, {"1, 1, 1e16", small, second}} {
		var fresh MapResponse
		postMap(t, newTestServer(t, Config{}).Handler(), c.req, http.StatusOK, &fresh)
		if math.Float64bits(c.got.Cost) != math.Float64bits(fresh.Cost) {
			t.Errorf("volumes %s: served cost %v (cached %v), a fresh solve costs %v", c.name, c.got.Cost, c.got.Cached, fresh.Cost)
		}
	}
}

func TestMapRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t, Config{MaxProcs: 128})
	h := srv.Handler()
	cases := []MapRequest{
		{},                           // no pattern at all
		{Workload: "LU"},             // no procs
		{Workload: "nope", Procs: 8}, // unknown workload
		{Workload: "LU", Procs: 8, Edges: []Edge{{Src: 0, Dst: 1}}}, // both
		{Workload: "LU", Procs: 4096},                               // over MaxProcs
		{Workload: "LU", Procs: 8, Algorithm: "annealing"},
		{Workload: "LU", Procs: 8, Constraint: []int{1}},        // wrong length
		{Workload: "LU", Procs: 8, DeadlineMillis: -5},          // negative deadline
		{Procs: 4, Edges: []Edge{{Src: 0, Dst: 9}}},             // edge out of range
		{Procs: 4, Edges: []Edge{{Src: 0, Dst: 1, Volume: -1}}}, // negative traffic
		{Workload: "LU", Procs: 8, Kappa: core.MaxKappa + 1},    // kappa over the bound
		{Workload: "LU", Procs: 8, Kappa: -1},                   // negative kappa
		{Workload: "LU", Procs: 8, Algorithm: "multilevel", Kappa: core.MaxKappa + 1},
		{Procs: 2, Edges: []Edge{{Src: 0, Dst: 1}}, Algorithm: "multilevel", Kappa: -1},
	}
	for i, req := range cases {
		var e errorResponse
		postMap(t, h, req, http.StatusBadRequest, &e)
		if e.Error == "" {
			t.Errorf("case %d returned no error message", i)
		}
	}
	// More processes than the pinned snapshot's total capacity is
	// rejected by request validation, before the workload is profiled.
	var e errorResponse
	postMap(t, h, MapRequest{Workload: "LU", Procs: 100, Seed: 1}, http.StatusBadRequest, &e)
	if e.Error == "" {
		t.Error("infeasible request returned no error message")
	}
}

// TestMapRejectsOverCapacityBeforeProfiling is the regression test for
// admitting a request no snapshot can place: K-means at 4096 processes
// over 100 iterations passes the server's process bound but not a
// 64-node snapshot's capacity, so it is answered 400 with nothing
// profiled, solved or memoized.
func TestMapRejectsOverCapacityBeforeProfiling(t *testing.T) {
	srv := newTestServer(t, Config{})
	var e errorResponse
	postMap(t, srv.Handler(), MapRequest{Workload: "K-means", Procs: 4096, Iters: maxIters, Seed: 1}, http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "procs = 4096 exceeds the snapshot's total capacity 64") {
		t.Errorf("error %q does not name the capacity", e.Error)
	}
	if view := srv.metrics.Snapshot(0, 0); view.Solves != 0 {
		t.Errorf("rejected request ran %d solves, want 0", view.Solves)
	}
	srv.graphs.mu.Lock()
	profiled := srv.graphs.values.len()
	srv.graphs.mu.Unlock()
	if profiled != 0 {
		t.Errorf("rejected request profiled %d workloads, want 0", profiled)
	}
}

// TestMapRejectsBadKappaBeforeProfiling is the regression test for
// admitting a kappa the geo and multilevel mappers refuse: the request
// used to be profiled and memoized, then answered 422 by Map. It is now
// answered 400 with nothing profiled, solved or memoized.
func TestMapRejectsBadKappaBeforeProfiling(t *testing.T) {
	srv := newTestServer(t, Config{})
	for _, req := range []MapRequest{
		{Workload: "LU", Procs: 16, Kappa: 9},
		{Workload: "LU", Procs: 16, Kappa: -1, Algorithm: "multilevel"},
	} {
		var e errorResponse
		postMap(t, srv.Handler(), req, http.StatusBadRequest, &e)
		if !strings.Contains(e.Error, "kappa") {
			t.Errorf("%+v: error %q does not name kappa", req, e.Error)
		}
	}
	if view := srv.metrics.Snapshot(0, 0); view.Solves != 0 {
		t.Errorf("rejected requests ran %d solves, want 0", view.Solves)
	}
	srv.graphs.mu.Lock()
	profiled := srv.graphs.values.len()
	srv.graphs.mu.Unlock()
	if profiled != 0 {
		t.Errorf("rejected requests profiled %d workloads, want 0", profiled)
	}
	// An algorithm that ignores kappa still maps with any value.
	var res MapResponse
	postMap(t, srv.Handler(), MapRequest{Workload: "LU", Procs: 16, Kappa: 9, Algorithm: "greedy"}, http.StatusOK, &res)
}

// TestGraphMemoHoldsFrozenGraphs requires a graph to be frozen when it
// enters the profiling memo, not at its first read: the request's allowed
// sets are infeasible, so no mapper reads the memoized graph, and
// AddTraffic on it must still panic, as it does only once the freeze has
// dropped the call log.
func TestGraphMemoHoldsFrozenGraphs(t *testing.T) {
	srv := newTestServer(t, Config{})
	req := MapRequest{Workload: "MG", Procs: 40, Iters: 3, Seed: 1, Allowed: make([][]int, 40)}
	for i := 0; i < 33; i++ {
		req.Allowed[i] = []int{0, 1}
	}
	postMap(t, srv.Handler(), req, http.StatusUnprocessableEntity, nil)
	srv.graphs.mu.Lock()
	g, ok := srv.graphs.values.get("MG/40/3")
	srv.graphs.mu.Unlock()
	if !ok {
		t.Fatal("the profiled graph is not memoized")
	}
	defer func() {
		if recover() == nil {
			t.Error("the memoized graph accepted AddTraffic: it was not frozen")
		}
	}()
	g.AddTraffic(0, 1, 1, 1)
}

// TestMapBoundsIters is the regression test for unbounded profiling: an
// iters above maxIters answers 400 before any queueing, so the pool runs
// no solve and nothing is profiled, while iters at the bound is served.
func TestMapBoundsIters(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	var e errorResponse
	postMap(t, h, MapRequest{Workload: "LU", Procs: 8, Iters: maxIters + 1, Seed: 1}, http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "iters = 101 exceeds the bound 100") {
		t.Errorf("error %q does not name the bound", e.Error)
	}
	if view := srv.metrics.Snapshot(0, 0); view.Solves != 0 {
		t.Errorf("rejected request ran %d solves, want 0", view.Solves)
	}
	srv.graphs.mu.Lock()
	profiled := srv.graphs.values.len()
	srv.graphs.mu.Unlock()
	if profiled != 0 {
		t.Errorf("rejected request profiled %d workloads, want 0", profiled)
	}
	postMap(t, h, MapRequest{Workload: "LU", Procs: 8, Iters: maxIters, Seed: 1}, http.StatusOK, nil)
	if view := srv.metrics.Snapshot(0, 0); view.Solves != 1 {
		t.Errorf("iters = %d ran %d solves, want 1", maxIters, view.Solves)
	}
}

// TestGraphMemoBounded is the regression test for the unbounded profiling
// memo: a stream of distinct procs values leaves it at graphMemoEntries,
// /metrics reports that size, and a request for an evicted key profiles
// it again and answers the first placement's digest. A one-entry result
// cache keeps every request on the solve path.
func TestGraphMemoBounded(t *testing.T) {
	st, err := NewStore(testSnapshot(t, 128, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Store: st, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := srv.Handler()
	memo := func(key string) (held bool, size int) {
		srv.graphs.mu.Lock()
		defer srv.graphs.mu.Unlock()
		_, held = srv.graphs.values.entries[key]
		return held, srv.graphs.values.len()
	}
	firstReq := MapRequest{Workload: "LU", Procs: 2, Seed: 1}
	firstKey := fmt.Sprintf("LU/%d/%d", firstReq.Procs, firstReq.iters())
	var first MapResult
	postMap(t, h, firstReq, http.StatusOK, &first)
	for procs := 3; procs <= graphMemoEntries+9; procs++ {
		postMap(t, h, MapRequest{Workload: "LU", Procs: procs, Seed: 1}, http.StatusOK, nil)
		if _, got := memo(""); got != min(procs-1, graphMemoEntries) {
			t.Fatalf("after procs = %d the memo holds %d graphs, want %d", procs, got, min(procs-1, graphMemoEntries))
		}
	}
	if got := getJSON(t, h, "/metrics", http.StatusOK)["graph_memo_entries"]; got != float64(graphMemoEntries) {
		t.Errorf("/metrics graph_memo_entries = %v, want %d", got, graphMemoEntries)
	}
	if held, _ := memo(firstKey); held {
		t.Fatal("the least recently used key was not evicted")
	}
	var again MapResult
	postMap(t, h, firstReq, http.StatusOK, &again)
	if again.Digest != first.Digest {
		t.Errorf("re-profiled key answered digest %s, first answer %s", again.Digest, first.Digest)
	}
	if held, size := memo(firstKey); !held || size != graphMemoEntries {
		t.Errorf("after re-profiling the memo holds the key: %t, %d graphs; want true, %d", held, size, graphMemoEntries)
	}
}

// holdProfiles makes srv's profiles wait on the returned release
// function, and returns it with a wait function that blocks until
// either n profiles of key have started or n−1 callers wait on the one
// in flight, and then returns the number of profiles started.
func holdProfiles(t *testing.T, srv *Server, key string, n int) (wait func() int, release func()) {
	t.Helper()
	var started atomic.Int32
	gate := make(chan struct{})
	srv.profileHook = func(string) {
		started.Add(1)
		<-gate
	}
	wait = func() int {
		for {
			srv.graphs.mu.Lock()
			waiting := 0
			if f := srv.graphs.inflight[key]; f != nil {
				waiting = f.waiters
			}
			srv.graphs.mu.Unlock()
			if k := int(started.Load()); k == n || (k == 1 && waiting == n-1) {
				return k
			}
			time.Sleep(time.Millisecond)
		}
	}
	return wait, func() { close(gate) }
}

// TestGraphForProfilesOnce is the regression test for concurrent cold
// misses profiling one preset once each: four requests that differ only
// in seed miss the result cache together, and their preset is profiled
// once while the other three wait for it. A profile that fails hands its
// error to the callers waiting on it and is not memoized, so the next
// call profiles again.
func TestGraphForProfilesOnce(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 4})
	h := srv.Handler()
	wait, release := holdProfiles(t, srv, "K-means/64/1", 4)
	var wg sync.WaitGroup
	for seed := int64(0); seed < 4; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postMap(t, h, MapRequest{Workload: "K-means", Procs: 64, Seed: seed}, http.StatusOK, nil)
		}()
	}
	profiles := wait()
	release()
	wg.Wait()
	if profiles != 1 {
		t.Errorf("four concurrent misses on one preset profiled it %d times, want 1", profiles)
	}

	wait, release = holdProfiles(t, srv, "no-such/8/1", 3)
	errs := make(chan error, 3)
	for k := 0; k < 3; k++ {
		go func() {
			_, err := srv.graphFor("no-such", 8, 1)
			errs <- err
		}()
	}
	profiles = wait()
	release()
	var first error
	for k := 0; k < 3; k++ {
		err := <-errs
		if err == nil {
			t.Fatal("profiling an unknown workload returned no error")
		}
		if first == nil {
			first = err
		} else if err != first {
			t.Errorf("callers of one failed profile got %v and %v, want one shared error", first, err)
		}
	}
	if profiles != 1 {
		t.Errorf("three concurrent calls of a failing profile ran it %d times, want 1", profiles)
	}
	srv.graphs.mu.Lock()
	_, memoized := srv.graphs.values.entries["no-such/8/1"]
	inFlight := len(srv.graphs.inflight)
	srv.graphs.mu.Unlock()
	if memoized || inFlight != 0 {
		t.Errorf("after a failed profile: memoized %t, %d profiles in flight; want false, 0", memoized, inFlight)
	}
	again := false
	srv.profileHook = func(string) { again = true }
	if _, err := srv.graphFor("no-such", 8, 1); err == nil || !again {
		t.Errorf("the call after a failed profile: error %v, profiled again %t; want an error from a new profile", err, again)
	}
}

// A request whose allowed sets violate Hall's condition is structurally
// valid but infeasible: 33 processes share sites {0, 1}, which hold 32.
// It answers 422 with Validate's verdict, and the error is not cached, so
// an identical retry fails the same way.
func TestMapInfeasibleSiteSets(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	req := MapRequest{Workload: "LU", Procs: 40, Seed: 1, Allowed: make([][]int, 40)}
	for i := 0; i < 33; i++ {
		req.Allowed[i] = []int{0, 1}
	}
	for try := 0; try < 2; try++ {
		var e errorResponse
		postMap(t, h, req, http.StatusUnprocessableEntity, &e)
		if !strings.Contains(e.Error, "constraints are infeasible: 1 of 40 processes cannot be placed") {
			t.Errorf("try %d: error %q does not carry the verdict", try, e.Error)
		}
	}
	if view := srv.metrics.Snapshot(0, 0); view.CacheHits != 0 || view.Errors != 2 {
		t.Errorf("metrics = %+v, want 0 hits / 2 errors", view)
	}
}

// TestMapNonFiniteCostIsAnError is the regression test for a result
// json.Marshal cannot encode: with every inter-site latency at 1e308,
// an all-to-all request's cost overflows to +Inf. The answer used to be
// a 200 with an empty body, written after the header and cached, so
// that every identical request got it again; it is now a 422 like any
// other failed solve, nothing is cached, and the next identical request
// solves again.
func TestMapNonFiniteCostIsAnError(t *testing.T) {
	snap := testSnapshot(t, 16, 1)
	snap.LT = snap.LT.Clone()
	for i := 0; i < snap.M(); i++ {
		for j := 0; j < snap.M(); j++ {
			if i != j {
				snap.LT.Set(i, j, 1e308)
			}
		}
	}
	st, err := NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := srv.Handler()
	req := MapRequest{Procs: 8}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j {
				req.Edges = append(req.Edges, Edge{Src: i, Dst: j, Volume: 1, Msgs: 10})
			}
		}
	}
	for try := 0; try < 2; try++ {
		var e errorResponse
		postMap(t, h, req, http.StatusUnprocessableEntity, &e)
		if !strings.Contains(e.Error, "encoding result") {
			t.Errorf("try %d: error %q, want the encoding failure", try, e.Error)
		}
	}
	if n := srv.cache.len(); n != 0 {
		t.Errorf("%d results cached, want 0", n)
	}
	if view := srv.metrics.Snapshot(0, 0); view.Solves != 2 || view.CacheHits != 0 || view.Errors != 2 {
		t.Errorf("metrics = %+v, want 2 solves, 0 hits, 2 errors", view)
	}
}

func TestMapDeadlineExceeded(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	block := make(chan struct{})
	var once sync.Once
	srv.solveHook = func(*MapRequest) { <-block }
	defer once.Do(func() { close(block) })
	h := srv.Handler()

	var e errorResponse
	postMap(t, h, MapRequest{Workload: "LU", Procs: 16, Seed: 1, DeadlineMillis: 30}, http.StatusGatewayTimeout, &e)
	if e.Error == "" {
		t.Error("timeout returned no error message")
	}
	once.Do(func() { close(block) })
	view := srv.metrics.Snapshot(0, 0)
	if view.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", view.Timeouts)
	}
}

// TestTimedOutSolveKeepsItsEdgeList is the regression test for the
// pooled edge list (edgePool): a leader whose deadline fired leaves its
// solve running on a worker, still reading the request's edges, so its
// handler must not hand the list back on the timeout path. One
// explicit-edge solve is held in solveHook past its request's deadline
// while other edge requests decode into pooled buffers and are solved on
// the second worker. Once released, the held solve must still read the
// list it was sent: solving the request as the hook sees it must give
// the digest and cost bits of a fresh solve of the request posted. The
// process runs at one P with the collector off, so a buffer handed back
// is the next one drawn; make race runs it too.
func TestTimedOutSolveKeepsItsEdgeList(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv := newTestServer(t, Config{Workers: 2})
	snap := srv.store.Current()
	type answer struct {
		digest string
		cost   uint64
	}
	solved := func(req *MapRequest) (answer, error) {
		res, err := solveRequest(req, snap, nil, 1)
		if err != nil {
			return answer{}, err
		}
		return answer{res.Digest, math.Float64bits(res.Cost)}, nil
	}

	var held atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	seen := make(chan answer, 1)
	seenErr := make(chan error, 1)
	srv.solveHook = func(req *MapRequest) {
		if !held.CompareAndSwap(false, true) {
			return
		}
		close(entered)
		<-release
		a, err := solved(req)
		seen <- a
		seenErr <- err
	}
	var once sync.Once
	defer once.Do(func() { close(release) })
	h := srv.Handler()

	req := benchRequest(64)
	req.DeadlineMillis = 30
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/map", bytes.NewReader(body)))
		code <- rec.Code
	}()
	<-entered
	if c := <-code; c != http.StatusGatewayTimeout {
		t.Fatalf("held request: status %d, want %d", c, http.StatusGatewayTimeout)
	}
	// Each of these decodes into a pooled buffer, as long as the held
	// list or longer, and overwrites it if the held request gave its
	// list back.
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 4; k++ {
		other := MapRequest{Procs: 64, Edges: randomEdges(rng, 64, 2*len(req.Edges)), Seed: int64(k)}
		postMap(t, h, other, http.StatusOK, nil)
	}
	once.Do(func() { close(release) })
	got := <-seen
	if err := <-seenErr; err != nil {
		t.Fatalf("held solve: %v", err)
	}
	fresh := benchRequest(64)
	want, err := solved(&fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("held solve read a recycled edge list: digest %.12s cost bits %#x, fresh solve %.12s %#x",
			got.digest, got.cost, want.digest, want.cost)
	}
}

// TestCachedRequestsOwnTheirEdges requires every cached request, as the
// re-gauging loop reads it (CachedPlacements, then withEdges), to hold
// an exact-size edge list of its own equal to the one posted: a handler
// decodes into a pooled buffer and hands it back once answered, so a
// cached list that shared it would be overwritten by a later request's
// decode. Four goroutines post two requests each, each twice (a miss,
// then a hit), the longer first, so that buffers are handed between
// them.
func TestCachedRequestsOwnTheirEdges(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	h := srv.Handler()
	rng := rand.New(rand.NewSource(4))
	bodies := make([][]byte, 8)
	sent := map[int64][]Edge{}
	for k := range bodies {
		r := MapRequest{Procs: 64, Edges: randomEdges(rng, 64, 240-25*k), Seed: int64(k)}
		sent[r.Seed] = r.Edges
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		bodies[k] = body
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range []int{g, g + 4, g, g + 4} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/map", bytes.NewReader(bodies[k])))
				if rec.Code != http.StatusOK {
					t.Errorf("request %d: status %d (body %s)", k, rec.Code, rec.Body.String())
				}
			}
		}()
	}
	wg.Wait()
	cached := srv.CachedPlacements()
	if len(cached) != len(sent) {
		t.Fatalf("%d cached placements, want %d", len(cached), len(sent))
	}
	for _, c := range cached {
		got, want := c.Request.withEdges().Edges, sent[c.Request.Seed]
		if !slices.Equal(got, want) {
			t.Errorf("seed %d: cached edges differ from the %d posted", c.Request.Seed, len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("seed %d: cached edge list has cap %d for %d edges", c.Request.Seed, cap(got), len(got))
		}
	}
}

// TestMapTimedOutWaiterCountsAsTimeout is the regression test for the
// singleflight outcome misclassification: a waiter whose deadline fired
// while the leader was still solving used to come back shared=true, so
// the 504 was tallied under deduped instead of timeouts.
func TestMapTimedOutWaiterCountsAsTimeout(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	srv.solveHook = func(*MapRequest) {
		entered <- struct{}{}
		<-release
	}
	defer once.Do(func() { close(release) })
	h := srv.Handler()

	req := MapRequest{Workload: "LU", Procs: 16, Seed: 1}
	leader := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/map", bytes.NewReader(body)))
		leader <- rec.Code
	}()
	<-entered // the leader is parked inside its solve

	// An identical request joins the leader's flight and times out first.
	waiter := req
	waiter.DeadlineMillis = 30
	var e errorResponse
	postMap(t, h, waiter, http.StatusGatewayTimeout, &e)

	view := srv.metrics.Snapshot(0, 0)
	if view.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", view.Timeouts)
	}
	if view.Deduped != 0 {
		t.Errorf("deduped = %d, want 0 (timed-out waiter misclassified as dedup)", view.Deduped)
	}

	once.Do(func() { close(release) })
	if code := <-leader; code != http.StatusOK {
		t.Fatalf("leader status = %d, want 200", code)
	}
	if view := srv.metrics.Snapshot(0, 0); view.Solves != 1 {
		t.Errorf("solves = %d, want 1", view.Solves)
	}
}

func TestMapQueueFullSheds(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.solveHook = func(*MapRequest) {
		entered <- struct{}{}
		<-release
	}
	h := srv.Handler()

	post := func(seed int64) chan int {
		ch := make(chan int, 1)
		go func() {
			body, _ := json.Marshal(MapRequest{Workload: "LU", Procs: 16, Seed: seed})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/map", bytes.NewReader(body)))
			ch <- rec.Code
		}()
		return ch
	}
	c1 := post(1)
	<-entered // the single worker is now parked inside request 1's solve
	c2 := post(2)
	// Request 2 queues behind the busy worker; the slot cannot drain
	// until release closes, so waiting on QueueDepth is deterministic.
	deadline := time.Now().Add(2 * time.Second)
	for srv.pool.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never occupied the queue slot")
		}
		time.Sleep(time.Millisecond)
	}
	// Worker and queue both occupied: a third distinct request is shed
	// immediately with 503.
	body, _ := json.Marshal(MapRequest{Workload: "LU", Procs: 16, Seed: 3})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/map", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("overloaded server answered %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 carried no Retry-After header")
	}
	close(release)
	if s := <-c1; s != http.StatusOK {
		t.Errorf("first request status %d", s)
	}
	if s := <-c2; s != http.StatusOK {
		t.Errorf("second request status %d", s)
	}
	if view := srv.metrics.Snapshot(0, 0); view.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", view.Rejected)
	}
}

func TestSnapshotSwapChangesFingerprint(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	// 16 processes over 64 slots: the mapper has room to steer around a
	// dead site (with procs == capacity it would have no choice).
	req := MapRequest{Workload: "LU", Procs: 16, Seed: 1}
	var v1 MapResponse
	postMap(t, h, req, http.StatusOK, &v1)

	// Publish a degraded snapshot through the admin endpoint.
	upd := SnapshotUpdate{FaultReport: &faults.Report{Schedule: "drill", DeadSites: []int{3}}}
	body, _ := json.Marshal(upd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/snapshot", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("admin snapshot status %d: %s", rec.Code, rec.Body.String())
	}
	var sv snapshotView
	if err := json.Unmarshal(rec.Body.Bytes(), &sv); err != nil {
		t.Fatal(err)
	}
	if sv.Version != 2 || sv.Source != "fault-report" {
		t.Errorf("published view = %+v", sv)
	}

	// The same request now misses the cache and resolves against v2,
	// steering off the dead site.
	var v2 MapResponse
	postMap(t, h, req, http.StatusOK, &v2)
	if v2.Cached {
		t.Error("request hit stale cache across snapshot swap")
	}
	if v2.SnapshotVersion != 2 {
		t.Errorf("snapshot version = %d, want 2", v2.SnapshotVersion)
	}
	for i, s := range v2.Placement {
		if s == 3 {
			t.Errorf("process %d placed on dead site 3", i)
			break
		}
	}
	// The old result is still served for old-version fingerprints only;
	// re-requesting naturally uses the current version, so the digest
	// may differ.
	if v1.SnapshotVersion != 1 {
		t.Errorf("first response version mutated to %d", v1.SnapshotVersion)
	}
}

// TestRepeatedFaultReportsDoNotCompound posts the same fault report
// several times — the WANify-style periodic re-gauge — and checks the
// served model stays at one application of the penalty, because each
// report derives from the last measured snapshot rather than the
// already-degraded current one.
func TestRepeatedFaultReportsDoNotCompound(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	measured := srv.store.Current().LT.At(0, 1)
	body, _ := json.Marshal(SnapshotUpdate{FaultReport: &faults.Report{
		Schedule:      "re-gauge",
		DegradedPairs: [][2]int{{0, 1}},
	}})
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/snapshot", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("report %d status %d: %s", i+1, rec.Code, rec.Body.String())
		}
		if got, want := srv.store.Current().LT.At(0, 1), measured*DegradeFactor; got != want {
			t.Fatalf("after report %d, LT(0,1) = %g, want %g (penalty compounded)", i+1, got, want)
		}
	}
	if got := srv.store.Current().Version; got != 4 {
		t.Errorf("version = %d, want 4 (each report still publishes)", got)
	}
}

func TestAdminSnapshotMatrices(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	m := srv.store.Current().M()
	lt := make([][]float64, m)
	bt := make([][]float64, m)
	for k := range lt {
		lt[k] = make([]float64, m)
		bt[k] = make([]float64, m)
		for l := range lt[k] {
			lt[k][l] = 0.01
			bt[k][l] = 1e7
		}
	}
	body, _ := json.Marshal(SnapshotUpdate{Source: "recalibration", LT: lt, BT: bt})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/snapshot", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	snap := srv.store.Current()
	if snap.Version != 2 || snap.Source != "recalibration" || snap.LT.At(0, 1) != 0.01 {
		t.Errorf("snapshot not replaced: v%d %q LT(0,1)=%g", snap.Version, snap.Source, snap.LT.At(0, 1))
	}

	// Bad updates: mismatched size, both-forms, neither.
	for i, upd := range []SnapshotUpdate{
		{LT: lt[:1], BT: bt[:1]},
		{LT: lt, BT: bt, FaultReport: &faults.Report{}},
		{},
	} {
		body, _ := json.Marshal(upd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/snapshot", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("bad update %d accepted with %d", i, rec.Code)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var health struct {
		Status   string       `json:"status"`
		Snapshot snapshotView `json:"snapshot"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Snapshot.Version != 1 || health.Snapshot.Sites != 4 {
		t.Errorf("health = %+v", health)
	}

	postMap(t, h, MapRequest{Workload: "LU", Procs: 16, Seed: 1}, http.StatusOK, nil)
	postMap(t, h, MapRequest{Workload: "LU", Procs: 16, Seed: 1}, http.StatusOK, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var view View
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Requests != 2 || view.CacheHits != 1 || view.Solves != 1 {
		t.Errorf("metrics view = %+v", view)
	}
	if view.RequestLatency.Count != 2 || view.SolveLatency.Count != 1 {
		t.Errorf("latency windows = %+v / %+v", view.RequestLatency, view.SolveLatency)
	}
	if view.HitRate != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", view.HitRate)
	}
}

// TestDrainOnShutdown is the SIGTERM-drain test the acceptance criteria
// name: an in-flight request admitted before shutdown completes with
// 200 while the listener refuses new work, and the pool drains.
func TestDrainOnShutdown(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.solveHook = func(*MapRequest) {
		once.Do(func() { close(entered) })
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// Fire a slow solve and wait until it is inside the worker.
	reqDone := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(MapRequest{Workload: "LU", Procs: 16, Seed: 1})
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/map", "application/json", bytes.NewReader(body))
		if err != nil {
			reqDone <- -1
			return
		}
		defer resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-entered

	// Begin graceful shutdown while the request is in flight, then let
	// the solve finish.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown close the listener
	close(release)

	if status := <-reqDone; status != http.StatusOK {
		t.Errorf("in-flight request finished with %d during drain, want 200", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("graceful shutdown failed: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	// After the listener is gone the pool drains without deadlock.
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool failed to drain after shutdown")
	}
}

// TestServerConcurrentMixedTraffic hammers one server with cached,
// novel, and admin traffic at once; meaningful under -race.
func TestServerConcurrentMixedTraffic(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 4, QueueDepth: 64, CacheSize: 64})
	h := srv.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch {
				case g == 0 && i%10 == 0:
					// Occasional snapshot publications mid-traffic.
					upd := SnapshotUpdate{FaultReport: &faults.Report{Schedule: fmt.Sprintf("s%d", i), DegradedPairs: [][2]int{{0, 1}}}}
					body, _ := json.Marshal(upd)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/snapshot", bytes.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Errorf("admin update failed: %d", rec.Code)
						return
					}
				default:
					req := MapRequest{Workload: "LU", Procs: 16, Seed: int64(i % 3)}
					body, _ := json.Marshal(req)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/map", bytes.NewReader(body)))
					if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
						t.Errorf("map status %d: %s", rec.Code, rec.Body.String())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
