package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"geoprocmap/internal/loadgen"
	"geoprocmap/internal/regauge"
	"geoprocmap/internal/service"
)

// daemonArg, as the first argument of the test binary, makes it run
// geomapd's main with the remaining arguments instead of the tests, so
// TestSIGTERMDrains can signal a real geomapd process.
const daemonArg = "run-geomapd"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == daemonArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Combined placement digests of the gate streams, pinned across commits.
const (
	serveSmokeDigest   = "82b25481879bb9d35763eb4468897f076822c146424c3172ddbc2d66421c0f05"
	serveClusterDigest = "e2dff4284767275cf0b97c5ee61ed3ba698f7d5b87921cb61d17b1ecbb63fda3"
)

// syncBuffer is a log sink safe to read while a daemon writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// testDaemon is one in-process geomapd serving on a loopback listener.
type testDaemon struct {
	d      *daemon
	log    *syncBuffer
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

// listen binds a loopback listener on an ephemeral port. Binding before
// the daemon starts gives a fleet its URLs for -self and -peers.
func listen(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln, "http://" + ln.Addr().String()
}

// startDaemon builds a daemon from geomapd's command line, as main does,
// and serves it on ln until the test drains it.
func startDaemon(t *testing.T, ln net.Listener, args ...string) *testDaemon {
	t.Helper()
	logw := &syncBuffer{}
	d, err := newDaemon(flag.NewFlagSet("geomapd", flag.ContinueOnError), args, logw)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	td := &testDaemon{d: d, log: logw, cancel: cancel, done: make(chan error, 1)}
	go func() { td.done <- d.serve(ctx, ln) }()
	t.Cleanup(func() { td.drain() })
	return td
}

// drain ends the daemon's context and returns serve's error; later calls
// return the same error.
func (td *testDaemon) drain() error {
	td.once.Do(func() {
		td.cancel()
		td.err = <-td.done
	})
	return td.err
}

// requireDrained drains the daemon and requires a nil error from serve
// and the final "drained" log line.
func requireDrained(t *testing.T, name string, td *testDaemon) {
	t.Helper()
	if err := td.drain(); err != nil {
		t.Errorf("%s: serve returned %v at drain; log:\n%s", name, err, td.log)
	}
	if !strings.Contains(td.log.String(), "drained:") {
		t.Errorf("%s never logged its drain; log:\n%s", name, td.log)
	}
}

// load is geoload's default run against url.
func load(url string, requests, concurrency int, seed int64) *loadgen.Options {
	return &loadgen.Options{
		URL: url, Route: "hash", Requests: requests, Concurrency: concurrency,
		Mix: [3]float64{0.70, 0.20, 0.10}, App: "LU", Procs: 16, Sites: 4, Pool: 4, Seed: seed,
		Timeout: 60 * time.Second, Retries: 4, RetryBase: 50 * time.Millisecond,
	}
}

// runLoad runs o and requires every request answered.
func runLoad(t *testing.T, name string, o *loadgen.Options) *loadgen.Report {
	t.Helper()
	rep, err := loadgen.Run(o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rep.Failed > 0 {
		for i := range rep.Outcomes {
			if res := &rep.Outcomes[i]; res.Failed() {
				t.Fatalf("%s: %d of %d requests failed; request %d: HTTP %d, %v",
					name, rep.Failed, o.Requests, i, res.Status, res.Err)
			}
		}
	}
	t.Logf("%s: %d requests in %.2fs (%.0f req/s), ok %d, cached %d, deduped %d, retried %d, digest %s",
		name, o.Requests, rep.Elapsed.Seconds(), reqPerSec(rep), rep.OK, rep.Cached, rep.Deduped, rep.Retried, rep.Digest)
	return rep
}

func reqPerSec(rep *loadgen.Report) float64 {
	return float64(len(rep.Outcomes)) / rep.Elapsed.Seconds()
}

// TestServeSmoke is the serve-smoke gate: one daemon answers the same
// seeded stream twice with the pinned combined digest, solving the
// novel requests on the first run and serving all of the second from its
// result cache, and then drains cleanly.
func TestServeSmoke(t *testing.T) {
	ln, url := listen(t)
	td := startDaemon(t, ln)
	o := load(url, 200, 8, 7)
	for run := 1; run <= 2; run++ {
		rep := runLoad(t, fmt.Sprintf("run %d", run), o)
		if rep.Digest != serveSmokeDigest {
			t.Errorf("run %d: placement digest %s, want %s", run, rep.Digest, serveSmokeDigest)
		}
		if run == 2 && rep.Cached != o.Requests {
			t.Errorf("warm run: %d of %d requests cache-served, want all", rep.Cached, o.Requests)
		}
	}
	requireDrained(t, "geomapd", td)
}

// TestServeCluster is the serve-cluster gate. One seeded stream of mostly
// novel requests must fold to the pinned digest against a single daemon,
// against a 3-daemon fleet with hash routing, and against the same fleet
// with round-robin routing. Under hash routing every request reaches its
// shard owner, so the fleet forwards nothing, each daemon solves exactly
// the distinct keys it owns, and the fleet solves as often as the single
// daemon did. Round-robin routing lands most requests on non-owners,
// which must answer them through peer consults. All four daemons drain
// cleanly.
func TestServeCluster(t *testing.T) {
	o := load("", 150, 8, 7)
	o.Procs, o.Mix = 64, [3]float64{0.2, 0.8, 0.0}

	ln, url := listen(t)
	single := startDaemon(t, ln)
	o.URL = url
	singleRep := runLoad(t, "single", o)
	if singleRep.Digest != serveClusterDigest {
		t.Errorf("single daemon: placement digest %s, want %s", singleRep.Digest, serveClusterDigest)
	}
	singleSolves := single.d.srv.Metrics().Snapshot(0, 0).Solves
	requireDrained(t, "single daemon", single)

	var lns [3]net.Listener
	urls := make([]string, len(lns))
	for i := range lns {
		lns[i], urls[i] = listen(t)
	}
	peers := strings.Join(urls, ",")
	fleet := make([]*testDaemon, len(lns))
	for i := range fleet {
		fleet[i] = startDaemon(t, lns[i], "-self", urls[i], "-peers", peers)
	}
	o.URL = peers

	o.Route = "hash"
	hashRep := runLoad(t, "hash-routed fleet", o)
	if hashRep.Digest != serveClusterDigest {
		t.Errorf("hash-routed fleet: placement digest %s, want %s", hashRep.Digest, serveClusterDigest)
	}
	ring, err := service.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]map[string]bool{}
	for _, req := range loadgen.Stream(o) {
		key := service.RoutingKey(&req)
		owner := ring.Owner(key)
		if owned[owner] == nil {
			owned[owner] = map[string]bool{}
		}
		owned[owner][key] = true
	}
	var fleetSolves uint64
	for i, node := range fleet {
		v := node.d.srv.Metrics().Snapshot(0, 0)
		fleetSolves += v.Solves
		if v.Forwarded != 0 {
			t.Errorf("node %d forwarded %d hash-routed requests, want 0", i, v.Forwarded)
		}
		if want := len(owned[urls[i]]); v.Solves != uint64(want) {
			t.Errorf("node %d solved %d times, want the %d distinct keys it owns", i, v.Solves, want)
		}
	}
	if fleetSolves != singleSolves {
		t.Errorf("fleet solved %d times, the single daemon %d", fleetSolves, singleSolves)
	}
	// Wall-clock throughput depends on the host, so it is logged only.
	t.Logf("throughput: single %.0f req/s, hash-routed fleet %.0f req/s, ratio %.2fx",
		reqPerSec(singleRep), reqPerSec(hashRep), reqPerSec(hashRep)/reqPerSec(singleRep))

	o.Route = "rr"
	if rep := runLoad(t, "round-robin fleet", o); rep.Digest != serveClusterDigest {
		t.Errorf("round-robin fleet: placement digest %s, want %s", rep.Digest, serveClusterDigest)
	}
	var peerHits uint64
	for _, node := range fleet {
		peerHits += node.d.srv.Metrics().Snapshot(0, 0).PeerHits
	}
	if peerHits == 0 {
		t.Error("round-robin run produced no peer_hits across the fleet")
	}
	t.Logf("fleet peer_hits = %d", peerHits)

	for i, node := range fleet {
		requireDrained(t, "node "+urls[i], node)
	}
}

// getJSON decodes the body of GET url into out and returns the raw body.
func getJSON(t *testing.T, url string, out any) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: %v (body %s)", url, err, body.String())
	}
	return body.String()
}

// TestRegaugeSmoke is the regauge-smoke gate. With the re-gauging loop
// probing FlakyWAN at timescale 60 (a 30 s gauge interval every 500 ms of
// wall time) and a populated result cache, the loop must publish at least
// one snapshot and suppress at least one remap by hysteresis within 60 s.
// /healthz must carry its status block, and the drain must stop it.
func TestRegaugeSmoke(t *testing.T) {
	ln, url := listen(t)
	td := startDaemon(t, ln, "-regauge", "-faults", "FlakyWAN", "-regauge-timescale", "60", "-workers", "2")
	o := load(url, 12, 4, 7)
	o.App, o.Procs = "CG", 64
	runLoad(t, "cache fill", o)

	var st regauge.Status
	deadline := time.Now().Add(60 * time.Second)
	for {
		var m struct {
			Components struct {
				Regauge *regauge.Status `json:"regauge"`
			} `json:"components"`
		}
		getJSON(t, url+"/metrics", &m)
		if m.Components.Regauge == nil {
			t.Fatal("/metrics lacks the regauge component")
		}
		st = *m.Components.Regauge
		if st.Published >= 1 && st.SuppressedCooldown+st.SuppressedUneconomic >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 60 s: %d snapshots published, %d+%d remaps suppressed; want at least 1 of each; log:\n%s",
				st.Published, st.SuppressedCooldown, st.SuppressedUneconomic, td.log)
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Logf("%d snapshots published, %d remaps suppressed by hysteresis",
		st.Published, st.SuppressedCooldown+st.SuppressedUneconomic)

	var health struct {
		Components map[string]json.RawMessage `json:"components"`
	}
	if body := getJSON(t, url+"/healthz", &health); health.Components["regauge"] == nil {
		t.Errorf("/healthz lacks the regauge component: %s", body)
	}

	requireDrained(t, "geomapd", td)
	if !strings.Contains(td.log.String(), "regauge: stopped") {
		t.Errorf("drain did not log the re-gauging loop's stop; log:\n%s", td.log)
	}
	// A live loop would run a pass every 500 ms of wall time.
	pass := td.d.gauger.Status().Pass
	time.Sleep(time.Second)
	if now := td.d.gauger.Status().Pass; now != pass {
		t.Errorf("re-gauging loop ran passes %d..%d after the drain", pass+1, now)
	}
}

// TestDrainClosesFreshConnections is the regression test for a drain
// held by a client that connects and never sends a request: Shutdown
// alone waits 5 s for such a connection, the drain must close it and
// finish within 1 s.
func TestDrainClosesFreshConnections(t *testing.T) {
	ln, url := listen(t)
	td := startDaemon(t, ln, "-nodes", "4")
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// The listener accepts in dial order, so once a later connection is
	// answered the server has accepted raw as a new connection.
	var health map[string]any
	getJSON(t, url+"/healthz", &health)
	start := time.Now()
	requireDrained(t, "daemon", td)
	if took := time.Since(start); took > time.Second {
		t.Errorf("drain took %v with one connection that sent no request, want under 1 s", took)
	}
	if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := raw.Read(make([]byte, 1)); err == nil {
		t.Errorf("the connection read %d bytes after the drain, want it closed", n)
	}
}

// TestSIGTERMDrains runs geomapd as its own process: SIGTERM must make it
// drain, log the final counters and exit 0.
func TestSIGTERMDrains(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(exe, daemonArg, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	var stderr syncBuffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill() // the process may already have exited
		<-exited
	})

	deadline := time.Now().Add(30 * time.Second)
	addr, err := os.ReadFile(addrFile)
	for ; err != nil; addr, err = os.ReadFile(addrFile) {
		if time.Now().After(deadline) {
			t.Fatalf("geomapd never wrote its address; log:\n%s", stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	var health map[string]any
	getJSON(t, "http://"+strings.TrimSpace(string(addr))+"/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("/healthz status %v, want ok", health["status"])
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err
		if err != nil {
			t.Fatalf("geomapd exited with %v on SIGTERM; log:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("geomapd still running 30 s after SIGTERM; log:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained:") {
		t.Errorf("geomapd never logged its drain; log:\n%s", stderr.String())
	}
}
