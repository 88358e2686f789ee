package netsim

import (
	"math"
	"reflect"
	"testing"

	"geoprocmap/internal/faults"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/trace"
	"geoprocmap/internal/units"
)

// faultySim builds a simulator over testCloud with the given schedule.
func faultySim(t *testing.T, sched *faults.Schedule) *Simulator {
	t.Helper()
	s, err := NewWithOptions(testCloud(), []int{0, 0, 1, 1}, Options{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFaultyNilScheduleMatchesPlain checks the fault-aware engines against
// the healthy references on testSim's layout (FuzzNilScheduleMatchesReference
// widens this to fuzzed clouds), and on seeded random streams over every
// site count and both WAN models, zero-byte messages included.
func TestFaultyNilScheduleMatchesPlain(t *testing.T) {
	checkNilScheduleMatchesReference(t, faultySim(t, nil), []trace.Event{
		{Src: 0, Dst: 2, Bytes: 10e6},
		{Src: 2, Dst: 1, Bytes: 5e6},
		{Src: 1, Dst: 3, Bytes: 10e6},
		{Src: 3, Dst: 0, Bytes: 0},
	})
	rng := stats.NewRand(7)
	for c := 0; c < 40; c++ {
		raw := make([]byte, 3*(1+rng.Intn(24)))
		rng.Read(raw)
		s, events := nilScheduleCase(t, rng.Int63(), uint8(c), uint8(rng.Intn(15)), c%2 == 1, raw)
		checkNilScheduleMatchesReference(t, s, events)
	}
}

func TestReplayBlocksUntilRecovery(t *testing.T) {
	sched := &faults.Schedule{Name: "window", Events: []faults.Event{
		{Kind: faults.LinkDown, Start: 0, End: 2, Src: 0, Dst: 1},
	}}
	s := faultySim(t, sched)
	span, rep, err := s.ReplayTraceFaulty([]trace.Event{{Src: 0, Dst: 2, Bytes: 10e6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Blocked until t=2, then 1 s transmission + 0.1 s propagation.
	if want := 2 + 1 + 0.1; !almost(span.Float(), want, 1e-9) {
		t.Errorf("span = %v, want %v", span, want)
	}
	if rep.Retries == 0 || !almost(rep.BlockedSeconds.Float(), 2, 1e-9) || rep.Dropped != 0 {
		t.Errorf("report = %+v, want retries > 0, blocked 2 s, no drops", rep)
	}
}

func TestReplayDropsAfterDeadline(t *testing.T) {
	sched := &faults.Schedule{Name: "blackout", Events: []faults.Event{
		{Kind: faults.SiteOutage, Start: 0, Site: 1}, // open-ended
	}}
	s := faultySim(t, sched)
	span, rep, err := s.ReplayTraceFaulty([]trace.Event{{Src: 0, Dst: 2, Bytes: 10e6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(span.Float(), DefaultFaultDeadline.Float(), 1e-9) {
		t.Errorf("span = %v, want the %v s deadline", span, DefaultFaultDeadline)
	}
	if rep.Dropped != 1 || !almost(rep.BlockedSeconds.Float(), DefaultFaultDeadline.Float(), 1e-9) {
		t.Errorf("report = %+v, want 1 drop and deadline blocked time", rep)
	}
	if !reflect.DeepEqual(rep.DeadSites, []int{1}) {
		t.Errorf("DeadSites = %v, want [1]", rep.DeadSites)
	}
}

func TestDegradationScalesRateAndLatency(t *testing.T) {
	sched := &faults.Schedule{Name: "soft", Events: []faults.Event{
		{Kind: faults.BandwidthDegrade, Start: 0, Src: faults.Wildcard, Dst: faults.Wildcard, Factor: 0.5},
		{Kind: faults.LatencySpike, Start: 0, Src: faults.Wildcard, Dst: faults.Wildcard, Factor: 2},
	}}
	s := faultySim(t, sched)
	span, rep, err := s.ReplayTraceFaulty([]trace.Event{{Src: 0, Dst: 2, Bytes: 10e6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half the 10 MB/s cross-site bandwidth and double the 0.1 s latency.
	if want := 10e6/5e6 + 0.2; !almost(span.Float(), want, 1e-9) {
		t.Errorf("replay span = %v, want %v", span, want)
	}
	phase, _, err := s.SimulatePhaseFaulty([]Message{{Src: 0, Dst: 2, Bytes: 10e6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10e6/5e6 + 0.2; !almost(phase.Float(), want, 1e-9) {
		t.Errorf("phase makespan = %v, want %v", phase, want)
	}
	if len(rep.DegradedPairs) == 0 {
		t.Error("degradation left DegradedPairs empty")
	}
	// Intra-site traffic is immune to wildcard WAN events.
	span, _, err = s.ReplayTraceFaulty([]trace.Event{{Src: 0, Dst: 1, Bytes: 100e6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100e6/100e6 + 0.001; !almost(span.Float(), want, 1e-9) {
		t.Errorf("intra-site span = %v, want healthy %v", span, want)
	}
}

func TestLossForcesRetransmissions(t *testing.T) {
	sched := &faults.Schedule{Name: "lossy", Seed: 7, Events: []faults.Event{
		{Kind: faults.ProbeLoss, Start: 0, Src: faults.Wildcard, Dst: faults.Wildcard, Probability: 0.9},
	}}
	s := faultySim(t, sched)
	events := []trace.Event{{Src: 0, Dst: 2, Bytes: 10e6}, {Src: 1, Dst: 3, Bytes: 10e6}}
	span, rep, err := s.ReplayTraceFaulty(events, 0)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := testSim(t).ReplayTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	if span <= healthy {
		t.Errorf("lossy span %v not above healthy %v", span, healthy)
	}
	if rep.Retries == 0 || rep.BlockedSeconds == 0 {
		t.Errorf("report = %+v, want retransmission accounting", rep)
	}
}

func TestFaultyStartPositionsSchedule(t *testing.T) {
	sched := &faults.Schedule{Name: "late-window", Events: []faults.Event{
		{Kind: faults.LinkDown, Start: 5, End: 6, Src: 0, Dst: 1},
	}}
	s := faultySim(t, sched)
	ev := []trace.Event{{Src: 0, Dst: 2, Bytes: 10e6}}
	before, repB, err := s.ReplayTraceFaulty(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	during, repD, err := s.ReplayTraceFaulty(ev, 5.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 0.1; !almost(before.Float(), want, 1e-9) || !repB.Empty() {
		t.Errorf("start=0: span %v (want %v), report %+v", before, want, repB)
	}
	// Blocked from 5.5 until the window ends at 6, then the healthy cost.
	if want := 0.5 + 1 + 0.1; !almost(during.Float(), want, 1e-9) || repD.Empty() {
		t.Errorf("start=5.5: span %v (want %v), report %+v", during, want, repD)
	}
}

func TestPlainEntryPointsDelegateWhenFaulty(t *testing.T) {
	sched := &faults.Schedule{Name: "soft", Events: []faults.Event{
		{Kind: faults.BandwidthDegrade, Start: 0, Src: faults.Wildcard, Dst: faults.Wildcard, Factor: 0.5},
	}}
	s := faultySim(t, sched)
	span, err := s.ReplayTrace([]trace.Event{{Src: 0, Dst: 2, Bytes: 10e6}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 10e6/5e6 + 0.1; !almost(span.Float(), want, 1e-9) {
		t.Errorf("ReplayTrace under faults = %v, want %v", span, want)
	}
	mk, err := s.SimulatePhase([]Message{{Src: 0, Dst: 2, Bytes: 10e6}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 10e6/5e6 + 0.1; !almost(mk.Float(), want, 1e-9) {
		t.Errorf("SimulatePhase under faults = %v, want %v", mk, want)
	}
}

func TestFaultySeedDeterminism(t *testing.T) {
	events := []trace.Event{
		{Src: 0, Dst: 2, Bytes: 4 << 20},
		{Src: 1, Dst: 3, Bytes: 4 << 20},
		{Src: 2, Dst: 0, Bytes: 1 << 20},
	}
	run := func(seed int64) (units.Seconds, *faults.Report) {
		c := testCloud()
		s, err := NewWithOptions(c, []int{0, 0, 1, 1}, Options{Faults: faults.FlakyWAN(c.M(), seed)})
		if err != nil {
			t.Fatal(err)
		}
		span, rep, err := s.ReplayTraceFaulty(events, 0)
		if err != nil {
			t.Fatal(err)
		}
		return span, rep
	}
	spanA, repA := run(42)
	spanB, repB := run(42)
	if math.Float64bits(spanA.Float()) != math.Float64bits(spanB.Float()) {
		t.Errorf("same seed gave spans %v and %v", spanA, spanB)
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Errorf("same seed gave reports %+v and %+v", repA, repB)
	}
}
