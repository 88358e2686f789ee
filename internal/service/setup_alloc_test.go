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

// edgeSetUpAllocBudget bounds the bytes the same server set-up allocates
// for 32 explicit-edge geo solves of benchRequest(512), seeds 1–32,
// each a ~1,480-edge, 86 KB body. What outlives a solve is each cached
// request's packed edge list (18 KB) and its result. Measured at
// 1,418,656 bytes on linux/amd64 with go1.24; the budget leaves ~20%
// slack. While a cached request kept its edges as an exact-size []Edge
// (47 KB), the set-up allocated 2,380,272 bytes; before the decoded
// list, the key order's scratch and the graph's rows were pooled, it
// allocated 7,050,224 bytes.
const edgeSetUpAllocBudget = 1_700_000

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool

// setUpPresets are the seven workload presets, in the order a serving
// set-up warms them.
var setUpPresets = []string{"LU", "BT", "SP", "K-means", "DNN", "CG", "MG"}

// measureAlloc returns the bytes run allocates once a first run has
// filled the packages' scratch pools. It holds the process at one P: a
// sync.Pool Get does not see what another P put in its private slot, so
// with several the figure would depend on where the scheduler ran each
// goroutine. Two collections first empty every pool of what earlier
// tests left, so the measured run draws on what the warm one returned,
// and the collector stays off from the warm run on, so a GC cannot
// empty a pool mid-run and the figure does not depend on heap size.
// TotalAlloc counts every goroutine of the process, so callers must not
// run in parallel.
func measureAlloc(run func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSetUpAllocationBudget gates the allocation of a cold set-up:
// profiling, freezing and mapping seven presets, and decoding, keying,
// building and mapping 32 explicit edge lists, must each allocate no
// more than their budget once a first set-up has filled the packages'
// scratch pools (see measureAlloc). Not parallel: measureAlloc sets
// GOMAXPROCS.
func TestSetUpAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles seven presets and solves 32 edge lists, twice each")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of what it is given")
	}
	presets := make([][]byte, len(setUpPresets))
	for k, w := range setUpPresets {
		presets[k] = marshal(t, MapRequest{Workload: w, Procs: 256, Algorithm: "geo", Seed: -int64(k) - 1})
	}
	edges := make([][]byte, 32)
	for k := range edges {
		r := benchRequest(512)
		r.Algorithm, r.Seed = "geo", int64(k)+1
		edges[k] = marshal(t, r)
	}
	for _, c := range []struct {
		name   string
		bodies [][]byte
		budget uint64
	}{
		{"presets", presets, setUpAllocBudget},
		{"edges", edges, edgeSetUpAllocBudget},
	} {
		alloc := measureAlloc(func() { setUp(t, c.bodies) })
		t.Logf("%s: set-up allocated %d bytes (budget %d)", c.name, alloc, c.budget)
		if alloc > c.budget {
			t.Errorf("%s: set-up allocated %d bytes, budget %d", c.name, alloc, c.budget)
		}
	}
}

// setUp posts each body to a fresh server over the paper's four regions
// and requires a 200 for each.
func setUp(t *testing.T, bodies [][]byte) {
	t.Helper()
	srv := newAllocServer(t, 640)
	defer srv.Close()
	h := srv.Handler()
	for k, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("body %d: status %d (body %s)", k, rec.Code, rec.Body.String())
		}
	}
}

// newAllocServer returns a server over the paper's four EC2 regions with
// nodes nodes in all.
func newAllocServer(t testing.TB, nodes int) *Server {
	t.Helper()
	st, err := NewStore(testSnapshot(t, nodes, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// hitWriter is a ResponseWriter that keeps the status and discards the
// body, so what a hit allocates does not grow with its response.
type hitWriter struct {
	header http.Header
	code   int
}

func (w *hitWriter) Header() http.Header         { return w.header }
func (w *hitWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *hitWriter) WriteHeader(code int)        { w.code = code }

// hitSlack is how far apart the bytes of a 512- and a 2048-process hit
// may lie: both allocate the same fixed set (the request, the key), and
// the body's buffer is pooled.
const hitSlack = 512

// hitAllocBudget bounds the bytes one warm hit allocates, most of them
// the test's own httptest request. Measured at 6,568 bytes on
// linux/amd64 with go1.24 once a hit wrote its cached bytes instead of
// encoding a response (6,680 before); the budget leaves ~6% slack.
const hitAllocBudget = 7000

// TestCacheHitAllocationFlat gates the hit path: once a request is
// cached and the pools are warm, answering it again allocates at most
// hitAllocBudget bytes, and the same bytes whether it carries ~1,480
// edges (benchRequest(512)) or ~5,900 (benchRequest(2048)), within
// hitSlack. The edge list is decoded into a pooled buffer and keyed with
// pooled scratch, and the answer is written from the cached bytes, so
// nothing a hit allocates grows with the edges or the placement. Not
// parallel: measureAlloc sets GOMAXPROCS.
func TestCacheHitAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of what it is given")
	}
	srv := newAllocServer(t, 2048)
	defer srv.Close()
	h := srv.Handler()
	const hits = 16
	perHit := map[int]uint64{}
	for _, n := range []int{512, 2048} {
		body := marshal(t, benchRequest(n))
		w := &hitWriter{header: http.Header{}}
		post := func() {
			clear(w.header)
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
			if w.code != http.StatusOK {
				t.Fatalf("procs %d: status %d", n, w.code)
			}
		}
		post() // the miss that caches it
		perHit[n] = measureAlloc(func() {
			for i := 0; i < hits; i++ {
				post()
			}
		}) / hits
		t.Logf("procs %d: a warm hit allocates %d bytes (budget %d)", n, perHit[n], hitAllocBudget)
		if perHit[n] > hitAllocBudget {
			t.Errorf("procs %d: a warm hit allocates %d bytes, budget %d", n, perHit[n], hitAllocBudget)
		}
	}
	if d := int64(perHit[2048]) - int64(perHit[512]); d > hitSlack || d < -hitSlack {
		t.Errorf("a 2048-process hit allocates %d bytes, a 512-process one %d: %+d, slack %d",
			perHit[2048], perHit[512], d, hitSlack)
	}
}
