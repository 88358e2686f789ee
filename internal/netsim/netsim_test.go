package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/trace"
	"geoprocmap/internal/units"
)

// testCloud builds a deterministic 2-site × 2-node cloud: intra-site
// 100 MB/s at 1 ms, cross-site 10 MB/s at 100 ms, no jitter.
func testCloud() *netmodel.Cloud {
	east := geo.MustRegion(geo.EC2Regions, "us-east-1")
	sg := geo.MustRegion(geo.EC2Regions, "ap-southeast-1")
	return &netmodel.Cloud{
		Provider: netmodel.AmazonEC2,
		Instance: netmodel.InstanceType{Name: "test", IntraBWMBps: 100, CrossBWScale: 1},
		Sites: []netmodel.Site{
			{Region: east, Nodes: 2},
			{Region: sg, Nodes: 2},
		},
		LT: mat.MustFrom([][]float64{{0.001, 0.1}, {0.1, 0.001}}),
		BT: mat.MustFrom([][]float64{{100e6, 10e6}, {10e6, 100e6}}),
	}
}

// Processes 0,1 on site 0; processes 2,3 on site 1.
func testSim(t *testing.T) *Simulator {
	t.Helper()
	s, err := New(testCloud(), []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewValidation(t *testing.T) {
	c := testCloud()
	cases := []struct {
		name    string
		mapping []int
	}{
		{"empty", nil},
		{"out of range", []int{0, 2}},
		{"negative", []int{-1}},
		{"overloaded", []int{0, 0, 0}},
	}
	for _, tc := range cases {
		if _, err := New(c, tc.mapping); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := New(nil, []int{0}); err == nil {
		t.Error("nil cloud accepted")
	}
}

func TestSingleCrossMessage(t *testing.T) {
	s := testSim(t)
	got, err := s.SimulatePhase([]Message{{Src: 0, Dst: 2, Bytes: 10e6}})
	if err != nil {
		t.Fatal(err)
	}
	want := 10e6/10e6 + 0.1 // transmission + propagation
	if !almost(got.Float(), want, 1e-9) {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestSingleIntraMessage(t *testing.T) {
	s := testSim(t)
	got, err := s.SimulatePhase([]Message{{Src: 0, Dst: 1, Bytes: 100e6}})
	if err != nil {
		t.Fatal(err)
	}
	want := 100e6/100e6 + 0.001 // NIC-bound + intra latency
	if !almost(got.Float(), want, 1e-9) {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestCrossPipeSharing(t *testing.T) {
	s := testSim(t)
	// Two equal flows from different sources share the 10 MB/s pipe:
	// each runs at 5 MB/s, finishing together.
	got, err := s.SimulatePhase([]Message{
		{Src: 0, Dst: 2, Bytes: 10e6},
		{Src: 1, Dst: 3, Bytes: 10e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 10e6/5e6 + 0.1
	if !almost(got.Float(), want, 1e-9) {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestCrossPipeUnequalFlows(t *testing.T) {
	s := testSim(t)
	// Processor sharing: small flow drains at 5 MB/s until t=1, then the
	// large one gets the full 10 MB/s: finishes at 1 + (15-5)/10 = 2.
	got, err := s.SimulatePhase([]Message{
		{Src: 0, Dst: 2, Bytes: 5e6},
		{Src: 1, Dst: 3, Bytes: 15e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 + 0.1
	if !almost(got.Float(), want, 1e-9) {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestEgressNICConstraint(t *testing.T) {
	s := testSim(t)
	// Process 0 sends intra to 1 and cross to 2. The cross flow is bounded
	// by the 10 MB/s pipe; the intra flow gets the remaining 90 MB/s of
	// process 0's 100 MB/s NIC rather than the full rate.
	got, err := s.SimulatePhase([]Message{
		{Src: 0, Dst: 1, Bytes: 90e6},
		{Src: 0, Dst: 2, Bytes: 20e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cross: 20e6/10e6 = 2 s (+0.1 latency). Intra: 90e6/90e6 = 1 s, done
	// first (+1 ms). Makespan = 2.1.
	if !almost(got.Float(), 2.1, 1e-6) {
		t.Errorf("makespan = %v, want 2.1", got)
	}
}

func TestIndependentIntraPairs(t *testing.T) {
	s := testSim(t)
	// Intra flows between disjoint pairs on both sites run at full NIC
	// rate simultaneously — the intra fabric is non-blocking.
	got, err := s.SimulatePhase([]Message{
		{Src: 0, Dst: 1, Bytes: 100e6},
		{Src: 2, Dst: 3, Bytes: 100e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got.Float(), 1.001, 1e-9) {
		t.Errorf("makespan = %v, want 1.001", got)
	}
}

func TestZeroByteMessageLatencyOnly(t *testing.T) {
	s := testSim(t)
	got, err := s.SimulatePhase([]Message{{Src: 0, Dst: 2, Bytes: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got.Float(), 0.1, 1e-12) {
		t.Errorf("makespan = %v, want 0.1", got)
	}
}

func TestEmptyPhase(t *testing.T) {
	s := testSim(t)
	for _, engine := range []func([]Message) (units.Seconds, error){s.SimulatePhase, s.SimulatePhasePS} {
		got, err := engine(nil)
		if err != nil || got != 0 {
			t.Errorf("empty phase = %v, %v; want 0, nil", got, err)
		}
	}
}

func TestMessageValidation(t *testing.T) {
	s := testSim(t)
	bad := [][]Message{
		{{Src: -1, Dst: 0, Bytes: 1}},
		{{Src: 0, Dst: 9, Bytes: 1}},
		{{Src: 1, Dst: 1, Bytes: 1}},
		{{Src: 0, Dst: 1, Bytes: -1}},
	}
	for i, msgs := range bad {
		if _, err := s.SimulatePhase(msgs); err == nil {
			t.Errorf("case %d accepted by exact engine", i)
		}
		if _, err := s.SimulatePhasePS(msgs); err == nil {
			t.Errorf("case %d accepted by PS engine", i)
		}
	}
}

func TestPSMatchesExactForCrossTraffic(t *testing.T) {
	s := testSim(t)
	// Pure cross traffic from distinct sources: NICs are not binding, so
	// the two engines agree.
	msgs := []Message{
		{Src: 0, Dst: 2, Bytes: 4e6},
		{Src: 1, Dst: 3, Bytes: 12e6},
		{Src: 2, Dst: 0, Bytes: 7e6},
	}
	exact, err := s.SimulatePhase(msgs)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.SimulatePhasePS(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(exact.Float(), ps.Float(), 1e-6) {
		t.Errorf("exact %v vs PS %v", exact, ps)
	}
}

func TestPhasesFromEvents(t *testing.T) {
	events := []trace.Event{
		{Src: 0, Dst: 1, Bytes: 10, Tag: 3},
		{Src: 1, Dst: 2, Bytes: 20, Tag: 0},
		{Src: 2, Dst: 3, Bytes: 30, Tag: 3},
	}
	phases := PhasesFromEvents(events)
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	if phases[0][0].Bytes != 20 {
		t.Error("tag 0 phase should come first")
	}
	if len(phases[1]) != 2 {
		t.Error("tag 3 phase should hold two messages")
	}
	if PhasesFromEvents(nil) != nil {
		t.Error("no events should give no phases")
	}
}

func TestMappingQualityVisible(t *testing.T) {
	// Four heavily-communicating pairs; colocating each pair must beat
	// splitting every pair across the WAN.
	east := geo.MustRegion(geo.EC2Regions, "us-east-1")
	sg := geo.MustRegion(geo.EC2Regions, "ap-southeast-1")
	cloud := &netmodel.Cloud{
		Provider: netmodel.AmazonEC2,
		Instance: netmodel.InstanceType{Name: "test", IntraBWMBps: 100, CrossBWScale: 1},
		Sites: []netmodel.Site{
			{Region: east, Nodes: 4},
			{Region: sg, Nodes: 4},
		},
		LT: mat.MustFrom([][]float64{{0.001, 0.1}, {0.1, 0.001}}),
		BT: mat.MustFrom([][]float64{{100e6, 10e6}, {10e6, 100e6}}),
	}
	msgs := []Message{
		{Src: 0, Dst: 1, Bytes: 50e6},
		{Src: 2, Dst: 3, Bytes: 50e6},
		{Src: 4, Dst: 5, Bytes: 50e6},
		{Src: 6, Dst: 7, Bytes: 50e6},
	}
	good, err := New(cloud, []int{0, 0, 0, 0, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := New(cloud, []int{0, 1, 0, 1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := good.SimulatePhase(msgs)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := bad.SimulatePhase(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if tg*5 > tb {
		t.Errorf("good mapping %v not ≫ faster than bad mapping %v", tg, tb)
	}
}

// Property: work conservation and monotonicity — the makespan is at least
// the best-case transmission time of the largest message and never
// decreases when messages are added.
func TestQuickMakespanMonotone(t *testing.T) {
	s, err := New(testCloud(), []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []uint32) bool {
		if len(raw) > 12 {
			raw = raw[:12]
		}
		var msgs []Message
		prev := units.Seconds(-1)
		for _, r := range raw {
			src := int(r % 4)
			dst := int((r / 4) % 4)
			if src == dst {
				dst = (dst + 1) % 4
			}
			msgs = append(msgs, Message{Src: src, Dst: dst, Bytes: units.Bytes(r%100) * 1e5})
			got, err := s.SimulatePhase(msgs)
			if err != nil {
				return false
			}
			if got < prev-1e-9 {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the exact engine is never faster than the no-contention lower
// bound Σ per-flow (bytes/capacity alone) maximum.
func TestQuickLowerBound(t *testing.T) {
	s, err := New(testCloud(), []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 10 {
			raw = raw[:10]
		}
		var msgs []Message
		lower := units.Seconds(0)
		for _, r := range raw {
			src := int(r % 4)
			dst := int((r / 4) % 4)
			if src == dst {
				dst = (dst + 1) % 4
			}
			bytes := units.Bytes(r%50+1) * 1e5
			msgs = append(msgs, Message{Src: src, Dst: dst, Bytes: bytes})
			capacity, lat, cross := s.link(src, dst)
			if !cross {
				capacity = s.nic[src]
			}
			if lb := bytes.Over(capacity) + lat; lb > lower {
				lower = lb
			}
		}
		got, err := s.SimulatePhase(msgs)
		if err != nil {
			return false
		}
		return got >= lower-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDedicatedWANNoContention(t *testing.T) {
	s, err := NewWithOptions(testCloud(), []int{0, 0, 1, 1}, Options{DedicatedWAN: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two cross flows from distinct endpoints: each gets the full
	// site-pair rate instead of sharing one pipe.
	msgs := []Message{
		{Src: 0, Dst: 2, Bytes: 10e6},
		{Src: 1, Dst: 3, Bytes: 10e6},
	}
	got, err := s.SimulatePhase(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got.Float(), 1.1, 1e-9) {
		t.Errorf("dedicated makespan = %v, want 1.1 (no pipe sharing)", got)
	}
	ps, err := s.SimulatePhasePS(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ps.Float(), 1.1, 1e-9) {
		t.Errorf("dedicated PS makespan = %v, want 1.1", ps)
	}
}

func TestDedicatedWANStillNICBound(t *testing.T) {
	s, err := NewWithOptions(testCloud(), []int{0, 0, 1, 1}, Options{DedicatedWAN: true})
	if err != nil {
		t.Fatal(err)
	}
	// One sender to two cross destinations: each flow could take
	// 10 MB/s, and the NIC (100 MB/s) is not binding, so both finish at
	// 1 s + latency.
	got, err := s.SimulatePhase([]Message{
		{Src: 0, Dst: 2, Bytes: 10e6},
		{Src: 0, Dst: 3, Bytes: 10e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got.Float(), 1.1, 1e-9) {
		t.Errorf("makespan = %v, want 1.1", got)
	}
}

func TestDedicatedVsSharedOrdering(t *testing.T) {
	shared := testSim(t)
	dedicated, err := NewWithOptions(testCloud(), []int{0, 0, 1, 1}, Options{DedicatedWAN: true})
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{
		{Src: 0, Dst: 2, Bytes: 5e6},
		{Src: 1, Dst: 3, Bytes: 5e6},
	}
	ts, err := shared.SimulatePhase(msgs)
	if err != nil {
		t.Fatal(err)
	}
	td, err := dedicated.SimulatePhase(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if td >= ts {
		t.Errorf("dedicated (%v) not faster than shared (%v)", td, ts)
	}
	// Replay shows the same ordering.
	events := []trace.Event{
		{Src: 0, Dst: 2, Bytes: 5e6},
		{Src: 1, Dst: 3, Bytes: 5e6},
	}
	rs, err := shared.ReplayTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := dedicated.ReplayTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	if rd >= rs {
		t.Errorf("dedicated replay (%v) not faster than shared replay (%v)", rd, rs)
	}
}
