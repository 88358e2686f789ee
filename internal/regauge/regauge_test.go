package regauge

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"geoprocmap/internal/calib"
	"geoprocmap/internal/core"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/service"
	"geoprocmap/internal/units"
)

// testRig is the shared fixture: a small 4-site cloud and a store whose
// baseline snapshot carries the full calibration's estimates, so a
// fault-free gauge pass sees only probe noise (well under the drift
// threshold) and a crafted fault schedule sees honest drift.
type testRig struct {
	cloud *netmodel.Cloud
	store *service.Store
}

func newRig(t *testing.T, seed int64) *testRig {
	t.Helper()
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions, 4, netmodel.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := calib.Calibrate(cloud, calib.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	snap := service.SnapshotFromCloud(cloud)
	snap.Source = "calibration"
	snap.LT = cal.LT
	snap.BT = cal.BT
	store, err := service.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{cloud: cloud, store: store}
}

func (r *testRig) gauger(t *testing.T, mutate func(*Config)) *Gauger {
	t.Helper()
	cfg := Config{Cloud: r.cloud, Store: r.store, Seed: 7}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	rig := newRig(t, 1)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil cloud", Config{Store: rig.store}},
		{"nil store", Config{Cloud: rig.cloud}},
		{"negative interval", Config{Cloud: rig.cloud, Store: rig.store, Interval: -1}},
		{"negative samples", Config{Cloud: rig.cloud, Store: rig.store, Samples: -2}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
	// Site-count mismatch between store and cloud.
	smaller, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions[:3], 4, netmodel.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store3, err := service.NewStore(service.SnapshotFromCloud(smaller))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Cloud: rig.cloud, Store: store3}); err == nil {
		t.Error("New accepted a store whose snapshot disagrees with the cloud's site count")
	}
}

// TestSteadyThenDriftPublishes drives the core detection path: a
// fault-free pass stays steady against the calibrated baseline, while a
// persistent bandwidth collapse drifts past the threshold and publishes
// exactly once — the next pass matches the republished model and goes
// steady again.
func TestSteadyThenDriftPublishes(t *testing.T) {
	rig := newRig(t, 2)
	quiet := rig.gauger(t, nil)
	pr := quiet.Step(units.Seconds(30))
	if pr.Outcome != OutcomeSteady {
		t.Fatalf("fault-free pass outcome = %s (max drift %.3f), want steady", pr.Outcome, pr.MaxDrift)
	}
	if got := rig.store.Current().Version; got != 1 {
		t.Fatalf("steady pass advanced the store to v%d", got)
	}

	sched := &faults.Schedule{Name: "collapse", Seed: 2, Events: []Event{
		{Kind: faults.BandwidthDegrade, Start: 0, Src: faults.Wildcard, Dst: faults.Wildcard, Factor: 0.4},
	}}
	g := rig.gauger(t, func(c *Config) { c.Faults = sched })
	pr = g.Step(units.Seconds(30))
	if pr.Outcome != OutcomePublished {
		t.Fatalf("drifted pass outcome = %s (max drift %.3f), want published", pr.Outcome, pr.MaxDrift)
	}
	if pr.PublishedVersion != 2 {
		t.Fatalf("published version = %d, want 2", pr.PublishedVersion)
	}
	if len(pr.DriftedPairs) == 0 || pr.MaxDrift <= 0.15 {
		t.Fatalf("published pass reports %d drifted pairs, max drift %.3f", len(pr.DriftedPairs), pr.MaxDrift)
	}
	if src := rig.store.Current().Source; src != "regauge" {
		t.Fatalf("published snapshot source = %q, want regauge", src)
	}
	pr = g.Step(units.Seconds(60))
	if pr.Outcome != OutcomeSteady {
		t.Fatalf("post-publication pass outcome = %s (max drift %.3f), want steady", pr.Outcome, pr.MaxDrift)
	}
	st := g.Status()
	if st.Published != 1 || st.LastPublishedVersion != 2 || st.Mode != ModeOK {
		t.Fatalf("status after publish = %+v", st)
	}
}

// Event aliases faults.Event so the literal tables above stay readable.
type Event = faults.Event

// TestFailureLadder walks the full mode ladder: three timed-out passes
// escalate ok → suspect → degraded with backoff on every failure; the
// first clean pass only reaches recovering — drift seen there is frozen,
// not published — and the second clean pass restores ok and publishes.
func TestFailureLadder(t *testing.T) {
	rig := newRig(t, 3)
	sched := &faults.Schedule{Name: "ladder", Seed: 3, Events: []Event{
		// Phase A: probes time out everywhere until t=200.
		{Kind: faults.LatencySpike, Start: 0, End: 200, Src: faults.Wildcard, Dst: faults.Wildcard, Factor: 1e9},
		// Phase B: after recovery the WAN is permanently degraded, so the
		// recovering gauger has real drift to (not) publish.
		{Kind: faults.BandwidthDegrade, Start: 200, Src: faults.Wildcard, Dst: faults.Wildcard, Factor: 0.4},
	}}
	g := rig.gauger(t, func(c *Config) { c.Faults = sched })

	wantModes := []string{ModeSuspect, ModeSuspect, ModeDegraded}
	now := units.Seconds(30)
	for i, want := range wantModes {
		pr := g.Step(now)
		if pr.Outcome != OutcomeGaugeFailed || pr.Mode != want {
			t.Fatalf("failed pass %d: outcome=%s mode=%s, want gauge-failed %s", i+1, pr.Outcome, pr.Mode, want)
		}
		if pr.NextWait <= g.cfg.Interval {
			t.Fatalf("failed pass %d: NextWait %v lacks backoff over interval %v", i+1, pr.NextWait, g.cfg.Interval)
		}
		now += pr.NextWait
	}
	if _, ok := g.StatusProbe(); ok {
		t.Fatal("StatusProbe reports healthy while degraded")
	}

	pr := g.Step(units.Seconds(250))
	if pr.Outcome != OutcomeFrozen || pr.Mode != ModeRecovering {
		t.Fatalf("first clean pass: outcome=%s mode=%s, want frozen recovering", pr.Outcome, pr.Mode)
	}
	if rig.store.Current().Version != 1 {
		t.Fatal("frozen pass published a snapshot")
	}
	pr = g.Step(units.Seconds(280))
	if pr.Outcome != OutcomePublished || pr.Mode != ModeOK {
		t.Fatalf("second clean pass: outcome=%s mode=%s, want published ok", pr.Outcome, pr.Mode)
	}
	if _, ok := g.StatusProbe(); !ok {
		t.Fatal("StatusProbe reports unhealthy after recovery")
	}
	st := g.Status()
	if st.GaugeFailures != 3 || st.ConsecutiveFailures != 0 {
		t.Fatalf("failure counters = %+v", st)
	}
}

// walkRig builds a gauger plus one explicit-edge target for direct
// walkTargets tests: two chatty processes placed on site 0.
func walkRig(t *testing.T) (*Gauger, *captureSource) {
	t.Helper()
	rig := newRig(t, 4)
	req := &service.MapRequest{
		Procs: 2,
		Edges: []service.Edge{{Src: 0, Dst: 1, Volume: 1 << 28, Msgs: 100}},
	}
	src := &captureSource{target: Target{
		Key:     "walk-test",
		Request: req,
		Result: &service.MapResult{
			SnapshotVersion: 1,
			Algorithm:       "geo",
			Placement:       []int{0, 0},
			Digest:          service.PlacementDigest(core.Placement{0, 0}),
		},
		Problem: func(snap *service.Snapshot) (*core.Problem, error) {
			return req.Problem(snap, nil)
		},
	}}
	g := rig.gauger(t, func(c *Config) { c.Source = src })
	return g, src
}

type captureSource struct {
	target  Target
	applied []*service.MapResult
}

func (s *captureSource) Targets() []Target { return []Target{s.target} }
func (s *captureSource) Apply(t Target, res *service.MapResult) error {
	s.target.Result = res
	s.applied = append(s.applied, res)
	return nil
}

// TestForcedEvacuationBypassesCooldown: a placement on a dead site is
// evacuated even inside its cooldown window and even when the migration
// is uneconomic — stay-and-die is not an option the hysteresis gets to
// pick.
func TestForcedEvacuationBypassesCooldown(t *testing.T) {
	g, src := walkRig(t)
	g.cooldownUntil["walk-test"] = units.Seconds(1e9)
	decs := g.walkTargets(units.Seconds(30), 2, []int{0}, nil)
	if len(decs) != 1 || decs[0].Action != ActionTriggered {
		t.Fatalf("decisions = %+v, want one triggered evacuation", decs)
	}
	if decs[0].Moved != 2 {
		t.Fatalf("moved = %d, want both processes off the dead site", decs[0].Moved)
	}
	if len(src.applied) != 1 {
		t.Fatalf("applied %d results, want 1", len(src.applied))
	}
	for _, s := range src.applied[0].Placement {
		if s == 0 {
			t.Fatalf("process still on dead site 0: %v", src.applied[0].Placement)
		}
	}
	if src.applied[0].Algorithm != "geo+remap" {
		t.Fatalf("applied algorithm = %q", src.applied[0].Algorithm)
	}
}

// TestCooldownSuppresses: without a dead site the cooldown gate wins
// before any remap is priced.
func TestCooldownSuppresses(t *testing.T) {
	g, src := walkRig(t)
	g.cooldownUntil["walk-test"] = units.Seconds(100)
	decs := g.walkTargets(units.Seconds(30), 2, nil, [][2]int{{0, 1}, {1, 0}})
	if len(decs) != 1 || decs[0].Action != ActionCooldown {
		t.Fatalf("decisions = %+v, want one cooldown suppression", decs)
	}
	if len(src.applied) != 0 {
		t.Fatal("cooldown-suppressed walk still applied a result")
	}
	if g.Status().SuppressedCooldown != 0 {
		// Counters move into Status only at recordStatus; the walk itself
		// must have bumped the step-side counter.
		t.Log("status view lags recordStatus by design")
	}
	if g.supCooldown != 1 {
		t.Fatalf("supCooldown = %d, want 1", g.supCooldown)
	}
}

// TestUneconomicSuppresses: an optimally placed target with healthy
// pairs yields no move worth its migration, and nothing is applied.
func TestUneconomicSuppresses(t *testing.T) {
	g, src := walkRig(t)
	// The two processes sit together already — every candidate (greedy
	// move, site evacuation, re-solve) either finds nothing or cannot
	// clear the migration bar.
	decs := g.walkTargets(units.Seconds(30), 2, nil, [][2]int{{2, 3}})
	if len(decs) != 1 || decs[0].Action != ActionUneconomic {
		t.Fatalf("decisions = %+v, want one uneconomic suppression", decs)
	}
	if len(src.applied) != 0 {
		t.Fatal("uneconomic walk still applied a result")
	}
	if g.supUneconomic != 1 {
		t.Fatalf("supUneconomic = %d, want 1", g.supUneconomic)
	}
}

// TestRunTimescale exercises the wall-clock loop: at a large timescale a
// few passes complete in milliseconds, and cancellation stops the loop.
func TestRunTimescale(t *testing.T) {
	rig := newRig(t, 5)
	g := rig.gauger(t, func(c *Config) { c.Timescale = 1e5 })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		g.Run(ctx)
		close(done)
	}()
	deadline := time.After(5 * time.Second)
	for g.Status().Pass < 2 {
		select {
		case <-deadline:
			t.Fatal("no passes completed within 5s of wall time")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancellation")
	}
}

func TestDeadSites(t *testing.T) {
	m := mat.NewSquare(3)
	// Site 1 fully unreachable in both directions; site 2 only outbound.
	for _, l := range []int{0, 2} {
		m.Set(1, l, 1)
		m.Set(l, 1, 1)
	}
	m.Set(2, 0, 1)
	if got := deadSites(m); len(got) != 1 || got[0] != 1 {
		t.Fatalf("deadSites = %v, want [1]", got)
	}
	if got := deadSites(nil); got != nil {
		t.Fatalf("deadSites(nil) = %v", got)
	}
	if got := deadSites(mat.NewSquare(1)); got != nil {
		t.Fatalf("deadSites(1×1) = %v, want none (no inter-site links to lose)", got)
	}
}

func TestRelChange(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{5, 0, 1},
		{-1, 0, 0},
		{12, 10, 0.2},
		{8, 10, 0.2},
		{10, 10, 0},
	}
	for _, c := range cases {
		if got := relChange(c.a, c.b); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("relChange(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPushWindow(t *testing.T) {
	var w []float64
	for i := 1; i <= 5; i++ {
		w = pushWindow(w, float64(i), 3)
	}
	if len(w) != 3 || w[0] != 3 || w[2] != 5 {
		t.Fatalf("window = %v, want [3 4 5]", w)
	}
}

// TestWalkLeavesUnpinnedProblemsUnconstrained runs the walk over a live
// server's cache — CachedPlacements, MapRequest.Problem, core.Remap with
// a degraded pair and with a dead site, and the re-solve — on unpinned
// requests, and then requires an unpinned request's problem to be all
// Unconstrained: MapRequest.Problem backs the constraint vector of every
// such problem with one shared array, which nothing may write.
func TestWalkLeavesUnpinnedProblemsUnconstrained(t *testing.T) {
	rig := newRig(t, 4)
	srv, err := service.NewServer(service.Config{Store: rig.store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	reqs := []service.MapRequest{
		{Workload: "LU", Procs: 12, Seed: 1},
		{Workload: "K-means", Procs: 12, Seed: 2, Algorithm: "multilevel"},
		{Procs: 12, Seed: 3, Edges: []service.Edge{{Src: 0, Dst: 5, Volume: 1 << 28, Msgs: 100}, {Src: 7, Dst: 11, Volume: 1 << 20, Msgs: 4}}},
	}
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d (body %s)", rec.Code, rec.Body.String())
		}
	}
	g := rig.gauger(t, func(c *Config) { c.Source = ServerSource{Server: srv} })
	version := rig.store.Current().Version
	for _, dead := range [][]int{nil, {0}} {
		decs := g.walkTargets(units.Seconds(30), version, dead, [][2]int{{1, 2}, {2, 1}})
		if len(decs) != len(reqs) {
			t.Fatalf("dead %v: %d decisions, want %d", dead, len(decs), len(reqs))
		}
		for _, d := range decs {
			if d.Action == ActionError {
				t.Fatalf("dead %v: %+v", dead, d)
			}
		}
	}
	p, err := (&service.MapRequest{Workload: "LU", Procs: 16}).Problem(rig.store.Current(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range p.Constraint {
		if c != core.Unconstrained {
			t.Fatalf("an unpinned problem's constraint[%d] = %d after the walk", i, c)
		}
	}
}
