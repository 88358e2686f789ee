package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoprocmap/internal/core"
)

// encoded returns what json.NewEncoder writes for v: the reference every
// answer's bytes are held to.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postBody posts req to a live server and returns the status and the
// body's bytes as the client reads them.
func postBody(t *testing.T, url string, req MapRequest) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/map", "application/json", bytes.NewReader(marshal(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// checkAnswer requires body to be the bytes json.NewEncoder writes for
// the MapResponse of want (with the answer's own solve time) and of the
// answer's flags, and returns the flags.
func checkAnswer(t *testing.T, name string, body []byte, want *MapResult) MapResponse {
	t.Helper()
	var got MapResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: %v (body %.200s)", name, err, body)
	}
	ref := *want
	ref.SolveMillis = got.SolveMillis
	exp := encoded(t, MapResponse{MapResult: ref, Cached: got.Cached, Deduped: got.Deduped, Peer: got.Peer})
	if !bytes.Equal(body, exp) {
		t.Errorf("%s: answer differs from the encoder's bytes\n got %.300s\nwant %.300s", name, body, exp)
	}
	return got
}

// freshResult solves req against snap outside any server.
func freshResult(t *testing.T, req MapRequest, snap *Snapshot) *MapResult {
	t.Helper()
	res, err := solveRequest(&req, snap, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// unpinned returns an all-Unconstrained constraint vector of n entries
// with the given (process, site) pins set.
func unpinned(n int, pins ...[2]int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = core.Unconstrained
	}
	for _, p := range pins {
		v[p[0]] = p[1]
	}
	return v
}

// TestAnswerBytesMatchEncoder holds every kind of 200 answer — solved,
// cached, deduped and from a peer — to the bytes json.NewEncoder writes
// for the same MapResponse, read over a real connection. The 2,048-process
// answer is longer than the response writer's 4 KB buffer.
func TestAnswerBytesMatchEncoder(t *testing.T) {
	srv := newAllocServer(t, 2048)
	defer srv.Close()
	var hold atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.solveHook = func(*MapRequest) {
		if hold.Load() {
			entered <- struct{}{}
			<-release
		}
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	snap := srv.store.Current()

	sets := make([][]int, 256)
	sets[7], sets[9] = []int{1, 2}, []int{3}
	for _, req := range []MapRequest{
		benchRequest(2048),
		{Workload: "LU", Procs: 64, Seed: 2, Constraint: unpinned(64, [2]int{3, 0}, [2]int{40, 2})},
		{Workload: "K-means", Procs: 256, Seed: 3, Allowed: sets, Algorithm: "multilevel"},
	} {
		want := freshResult(t, req, snap)
		if req.Procs == 2048 && len(marshal(t, want)) <= 4096 {
			t.Fatalf("a 2,048-process answer of %d bytes fits the 4 KB buffer", len(marshal(t, want)))
		}
		for k, wantCached := range []bool{false, true} {
			name := fmt.Sprintf("%d procs, answer %d", req.Procs, k)
			code, body := postBody(t, hs.URL, req)
			if code != http.StatusOK {
				t.Fatalf("%s: status %d (body %s)", name, code, body)
			}
			if got := checkAnswer(t, name, body, want); got.Cached != wantCached || got.Deduped || got.Peer {
				t.Errorf("%s: flags cached=%v deduped=%v peer=%v, want cached=%v", name, got.Cached, got.Deduped, got.Peer, wantCached)
			}
		}
	}

	// Three requests join a held solve's flight, which is released only
	// once all three wait on it.
	req := MapRequest{Workload: "LU", Procs: 64, Seed: 10}
	want := freshResult(t, req, snap)
	key := fingerprint(&req, snap.Version)
	bodies := make(chan []byte, 4)
	post := func() {
		code, body := postBody(t, hs.URL, req)
		if code != http.StatusOK {
			t.Errorf("deduped: status %d", code)
		}
		bodies <- body
	}
	hold.Store(true)
	go post()
	<-entered
	hold.Store(false)
	for i := 0; i < 3; i++ {
		go post()
	}
	for waiting := 0; waiting < 3; {
		srv.cache.mu.Lock()
		waiting = srv.cache.inflight[key].waiters
		srv.cache.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	release <- struct{}{}
	deduped := 0
	for i := 0; i < 4; i++ {
		if got := checkAnswer(t, "deduped", <-bodies, want); got.Deduped {
			deduped++
		}
	}
	if deduped != 3 {
		t.Errorf("%d of the three joining answers were deduped", deduped)
	}

	// A request the second node of a fleet owns, posted to the first.
	nodes := startCluster(t, 2)
	req = MapRequest{Workload: "LU", Procs: 16}
	for nodes[0].srv.cluster.Owner(RoutingKey(&req)) != nodes[1].url {
		req.Seed++
	}
	want = freshResult(t, req, nodes[0].srv.store.Current())
	code, body := postBody(t, nodes[0].url, req)
	if code != http.StatusOK {
		t.Fatalf("peer: status %d (body %s)", code, body)
	}
	if got := checkAnswer(t, "peer", body, want); !got.Peer || got.Cached || got.Deduped {
		t.Errorf("peer: flags cached=%v deduped=%v peer=%v, want peer", got.Cached, got.Deduped, got.Peer)
	}
}

// sameResult reports whether a and b are equal, floats bit for bit.
func sameResult(a, b *MapResult) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.SnapshotVersion == b.SnapshotVersion && a.Algorithm == b.Algorithm &&
		same(a.Cost, b.Cost) && same(a.LatencyCost, b.LatencyCost) && same(a.BandwidthCost, b.BandwidthCost) &&
		slices.Equal(a.Placement, b.Placement) && (a.Placement == nil) == (b.Placement == nil) &&
		a.Digest == b.Digest && same(a.SolveMillis, b.SolveMillis)
}

// TestCachedPlacementsRoundTrip requires CachedPlacements to give back
// each request as it was posted — pinned, with an all-Unconstrained
// vector, without one, with site sets, with explicit edges — and each
// result as it was answered, floats bit for bit, while four goroutines
// post every request twice (misses, dedups and hits) and a fifth walks
// the cache. A walk's results are the caller's: changing one changes no
// later walk.
func TestCachedPlacementsRoundTrip(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	h := srv.Handler()
	rng := rand.New(rand.NewSource(9))
	pins := unpinned(64, [2]int{3, 0}, [2]int{17, 2}, [2]int{40, 3})
	sets := make([][]int, 64)
	sets[5], sets[6] = []int{1, 2}, []int{0}
	reqs := []MapRequest{
		{Workload: "LU", Procs: 64, Seed: 1, Constraint: pins},
		{Workload: "LU", Procs: 64, Seed: 2, Constraint: unpinned(64)},
		{Workload: "K-means", Procs: 48, Seed: 3},
		{Workload: "BT", Procs: 64, Iters: 2, Seed: 4, Allowed: sets, Algorithm: "multilevel", Kappa: 3, DeadlineMillis: 20000},
		{Procs: 64, Seed: 5, Edges: randomEdges(rng, 64, 200)},
		{Procs: 64, Seed: 6, Edges: randomEdges(rng, 64, 150), Constraint: pins, Allowed: sets, Algorithm: "greedy"},
	}
	bodies := make([][]byte, len(reqs))
	posted := map[int64]MapRequest{}
	for k, r := range reqs {
		bodies[k] = marshal(t, r)
		p, err := decodeStdlib(bodies[k])
		if err != nil {
			t.Fatal(err)
		}
		posted[r.Seed] = p
	}
	checkRequests := func(entries []CachedPlacement) {
		for _, e := range entries {
			if want := posted[e.Request.Seed]; !reflect.DeepEqual(*e.Request, want) {
				t.Errorf("seed %d: cached request %+v, posted %+v", e.Request.Seed, *e.Request, want)
			}
		}
	}

	var (
		mu       sync.Mutex
		answered = map[int64]*MapResult{}
		wg       sync.WaitGroup
		done     = make(chan struct{})
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*len(reqs); i++ {
				k := (g + i) % len(reqs)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(bodies[k])))
				var got MapResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
					t.Errorf("request %d: status %d, %v (body %s)", k, rec.Code, err, rec.Body.String())
					return
				}
				mu.Lock()
				if prev, ok := answered[reqs[k].Seed]; ok && !sameResult(prev, &got.MapResult) {
					t.Errorf("request %d: answered %+v, earlier %+v", k, got.MapResult, *prev)
				}
				answered[reqs[k].Seed] = &got.MapResult
				mu.Unlock()
			}
		}()
	}
	walked := make(chan struct{})
	go func() {
		defer close(walked)
		for {
			select {
			case <-done:
				return
			default:
				checkRequests(srv.CachedPlacements())
			}
		}
	}()
	wg.Wait()
	close(done)
	<-walked

	entries := srv.CachedPlacements()
	if len(entries) != len(reqs) {
		t.Fatalf("%d cached placements, want %d", len(entries), len(reqs))
	}
	checkRequests(entries)
	for _, e := range entries {
		if want := answered[e.Request.Seed]; !sameResult(e.Result, want) {
			t.Errorf("seed %d: cached result %+v, answered %+v", e.Request.Seed, *e.Result, *want)
		}
		e.Result.Placement[0]++
		e.Result.Cost++
	}
	again := srv.CachedPlacements()
	checkRequests(again)
	for _, e := range again {
		if want := answered[e.Request.Seed]; !sameResult(e.Result, want) {
			t.Errorf("seed %d: a caller's change reached the cache: %+v", e.Request.Seed, *e.Result)
		}
	}
}

// cacheEntryBudget bounds the heap one cached 256-process preset result
// keeps alive: about 1,810 bytes, of which a pinned request's 256-int
// constraint copy is 2 KB in one entry of three. Before results were kept
// as their answer's bytes an entry kept 3,234 bytes, the placement as 256
// ints and the digest among them.
const cacheEntryBudget = 2000

// edgeEntryBudget bounds the heap one cached benchRequest(512) result
// keeps alive: 20,695 bytes on linux/amd64 with go1.24, of which 18,463
// are its packed edge list; the budget leaves ~16% slack. While the request kept its 1,485 edges as an exact-size []Edge
// (47,520 bytes), an entry kept 50,761 bytes.
const edgeEntryBudget = 24_000

// novelPreset returns the i-th of a stream of novel 256-process preset
// requests over four sites, one in three with 1–3 pins drawn from rng,
// as the benchmark's novel requests are.
func novelPreset(i int, rng *rand.Rand) MapRequest {
	req := MapRequest{Workload: setUpPresets[i%len(setUpPresets)], Procs: 256, Seed: int64(i) + 1}
	if i%3 == 0 {
		req.Constraint = unpinned(256)
		for pins := 1 + rng.Intn(3); pins > 0; pins-- {
			req.Constraint[rng.Intn(256)] = rng.Intn(4)
		}
	}
	return req
}

// TestCacheEntryBytes measures the heap retained per cache entry on the
// paper's four regions at 160 nodes each, read after forced collections:
//   - presets: 480 novel 256-process preset solves, one in three with
//     1–3 pins, as the benchmark's novel requests are. Each preset is
//     profiled first, so its memoized graph is not counted.
//   - edges: 64 explicit-edge solves of benchRequest(512), seeds 1–64,
//     as the benchmark's cache-hit requests are. Four solves first warm
//     the scratch pools.
func TestCacheEntryBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	var presets, warm, edges []MapRequest
	for k, w := range setUpPresets {
		warm = append(warm, MapRequest{Workload: w, Procs: 256, Seed: -int64(k) - 1})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 480; i++ {
		presets = append(presets, novelPreset(i, rng))
	}
	for seed := int64(-4); seed <= 64; seed++ {
		if seed != 0 {
			r := benchRequest(512)
			r.Seed = seed
			edges = append(edges, r)
		}
	}
	for _, c := range []struct {
		name       string
		warm, reqs []MapRequest
		budget     int64
	}{
		{"presets", warm, presets, cacheEntryBudget},
		{"edges", edges[:4], edges[4:], edgeEntryBudget},
	} {
		per := entryBytes(t, c.warm, c.reqs)
		t.Logf("%s: a cached result keeps %d bytes (budget %d)", c.name, per, c.budget)
		if per > c.budget {
			t.Errorf("%s: a cached result keeps %d bytes, budget %d", c.name, per, c.budget)
		}
	}
}

// entryBytes posts warm and then reqs to a fresh server and returns the
// live heap the reqs' cache entries keep, per entry.
func entryBytes(t *testing.T, warm, reqs []MapRequest) int64 {
	t.Helper()
	srv := newAllocServer(t, 640)
	defer srv.Close()
	h := srv.Handler()
	post := func(req MapRequest) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(marshal(t, req))))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d (body %s)", rec.Code, rec.Body.String())
		}
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, req := range warm {
		post(req)
	}
	before := live()
	for _, req := range reqs {
		post(req)
	}
	per := (int64(live()) - int64(before)) / int64(len(reqs))
	if n := srv.cache.len(); n != len(warm)+len(reqs) {
		t.Fatalf("%d entries cached, want %d", n, len(warm)+len(reqs))
	}
	return per
}

// BenchmarkCachedPlacements walks a cache as the re-gauging loop does
// after each publication: presets holds 1,024 256-process preset
// results, one in three with 1–3 pins; edges holds 256 results of
// benchRequest(512), seeds 1–256, whose edge lists the walk unpacks.
func BenchmarkCachedPlacements(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var presets, edges []MapRequest
	for i := 0; i < 1024; i++ {
		presets = append(presets, novelPreset(i, rng))
	}
	for seed := int64(1); seed <= 256; seed++ {
		r := benchRequest(512)
		r.Seed = seed
		edges = append(edges, r)
	}
	for _, bc := range []struct {
		name string
		reqs []MapRequest
	}{
		{"presets", presets},
		{"edges", edges},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := newAllocServer(b, 640)
			defer srv.Close()
			h := srv.Handler()
			for _, req := range bc.reqs {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(marshal(b, req))))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := len(srv.CachedPlacements()); n != len(bc.reqs) {
					b.Fatalf("%d entries", n)
				}
			}
		})
	}
}
