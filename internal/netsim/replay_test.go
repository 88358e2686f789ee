package netsim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"geoprocmap/internal/mat"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/trace"
	"geoprocmap/internal/units"
)

// referenceReplay is the healthy-network logical-clock replay as its own
// loop, with no fault terms: the specification ReplayTrace and
// ReplayTraceFaulty must reproduce bit for bit when no schedule is set.
func referenceReplay(s *Simulator, events []trace.Event) (units.Seconds, error) {
	n := len(s.mapping)
	clock := make([]float64, n)
	egressFree := make([]float64, n)
	ingressFree := make([]float64, n)
	wanFree := map[[2]int]float64{}
	span := 0.0
	for i, e := range events {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return 0, fmt.Errorf("netsim: event %d endpoint out of range: %d→%d", i, e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			return 0, fmt.Errorf("netsim: event %d is a self-send on process %d", i, e.Src)
		}
		if e.Bytes < 0 {
			return 0, fmt.Errorf("netsim: event %d has negative size", i)
		}
		k, l := s.mapping[e.Src], s.mapping[e.Dst]
		lat := s.cloud.LT.At(k, l)
		rate := s.nic[e.Src]
		if r := s.nic[e.Dst]; r < rate {
			rate = r
		}
		start := math.Max(clock[e.Src], math.Max(egressFree[e.Src], ingressFree[e.Dst]))
		var wanKey [2]int
		shared := k != l && !s.opt.DedicatedWAN
		if k != l {
			if bw := s.cloud.Bandwidth(k, l); bw < rate {
				rate = bw
			}
		}
		if shared {
			wanKey = [2]int{k, l}
			start = math.Max(start, wanFree[wanKey])
		}
		end := start + units.Bytes(e.Bytes).Over(rate).Float()
		egressFree[e.Src] = end
		ingressFree[e.Dst] = end
		if shared {
			wanFree[wanKey] = end
		}
		arrival := end + lat
		clock[e.Src] = end
		if arrival > clock[e.Dst] {
			clock[e.Dst] = arrival
		}
		if arrival > span {
			span = arrival
		}
	}
	return units.Seconds(span), nil
}

// referencePhase is the healthy-network event-driven phase with no fault
// terms: the fluid solve of the nonzero flows, floored by the latency of
// the zero-byte messages. SimulatePhase and SimulatePhaseFaulty must
// reproduce it bit for bit when no schedule is set.
func referencePhase(s *Simulator, msgs []Message) (units.Seconds, error) {
	flows, maxLatency, err := s.buildFlows(msgs)
	if err != nil {
		return 0, err
	}
	if len(flows) == 0 {
		return maxLatency, nil
	}
	makespan, err := s.solveFluid(flows)
	if err != nil {
		return 0, err
	}
	if maxLatency > makespan {
		makespan = maxLatency
	}
	return makespan, nil
}

// nilScheduleCase decodes a fuzz input: an m-site cloud (1 ≤ m ≤ 4) whose
// latencies and bandwidths, intra-site NIC rates included, are drawn from
// seed independently, so a WAN pipe may be faster than either NIC; n
// processes (2 ≤ n ≤ 16) placed in contiguous blocks over the sites; and
// one event per three bytes of raw (source, destination, size in units of
// 100 kB, where 0 is a zero-byte message).
func nilScheduleCase(t *testing.T, seed int64, sites, procs uint8, dedicated bool, raw []byte) (*Simulator, []trace.Event) {
	t.Helper()
	m, n := 1+int(sites%4), 2+int(procs%15)
	rng := stats.NewRand(seed)
	lt, bt := mat.NewSquare(m), mat.NewSquare(m)
	cloud := &netmodel.Cloud{LT: lt, BT: bt}
	for k := 0; k < m; k++ {
		cloud.Sites = append(cloud.Sites, netmodel.Site{Nodes: n})
		for l := 0; l < m; l++ {
			lt.Set(k, l, 1e-4+0.3*rng.Float64())
			bt.Set(k, l, 1e6+99e6*rng.Float64())
		}
	}
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = i * m / n
	}
	s, err := NewWithOptions(cloud, mapping, Options{DedicatedWAN: dedicated})
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	for ; len(raw) >= 3; raw = raw[3:] {
		src, dst := int(raw[0])%n, int(raw[1])%n
		if src == dst {
			dst = (dst + 1) % n
		}
		events = append(events, trace.Event{Src: src, Dst: dst, Bytes: int64(raw[2]) * 1e5})
	}
	return s, events
}

// checkNilScheduleMatchesReference requires both fault-aware engines and
// their plain entry points to reproduce the references bit for bit, with
// an empty report, on a simulator with no fault schedule. The events are
// replayed in order and simulated as one concurrent phase.
func checkNilScheduleMatchesReference(t *testing.T, s *Simulator, events []trace.Event) {
	t.Helper()
	same := func(what string, got, want units.Seconds) {
		t.Helper()
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			t.Errorf("%s = %v (%016x), reference %v (%016x)", what, got, math.Float64bits(got.Float()), want, math.Float64bits(want.Float()))
		}
	}
	wantSpan, err := referenceReplay(s, events)
	if err != nil {
		t.Fatal(err)
	}
	span, err := s.ReplayTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	same("ReplayTrace", span, wantSpan)
	span, rep, err := s.ReplayTraceFaulty(events, 0)
	if err != nil {
		t.Fatal(err)
	}
	same("ReplayTraceFaulty", span, wantSpan)
	if !rep.Empty() || rep.Messages != len(events) {
		t.Errorf("replay report %+v, want empty over %d messages", rep, len(events))
	}

	msgs := make([]Message, len(events))
	for i, e := range events {
		msgs[i] = Message{Src: e.Src, Dst: e.Dst, Bytes: units.Bytes(e.Bytes)}
	}
	wantPhase, err := referencePhase(s, msgs)
	if err != nil {
		t.Fatal(err)
	}
	phase, err := s.SimulatePhase(msgs)
	if err != nil {
		t.Fatal(err)
	}
	same("SimulatePhase", phase, wantPhase)
	phase, rep, err = s.SimulatePhaseFaulty(msgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	same("SimulatePhaseFaulty", phase, wantPhase)
	if !rep.Empty() || rep.Messages != len(msgs) {
		t.Errorf("phase report %+v, want empty over %d messages", rep, len(msgs))
	}
}

// FuzzNilScheduleMatchesReference fuzzes the fault-aware engines at a nil
// schedule against the healthy references over clouds, placements and
// event streams, on shared and dedicated WAN (make fuzz runs it).
func FuzzNilScheduleMatchesReference(f *testing.F) {
	// testdata/fuzz holds the two-event cases on testSim's two-site,
	// four-process layout; these add one site and the full 16 processes.
	f.Add(int64(2), uint8(0), uint8(7), true, []byte{0, 1, 10, 5, 2, 0, 6, 7, 200})
	f.Add(int64(4), uint8(3), uint8(14), false, []byte{0, 15, 30, 15, 0, 30, 3, 12, 255, 8, 4, 1, 9, 2, 0})
	f.Fuzz(func(t *testing.T, seed int64, sites, procs uint8, dedicated bool, raw []byte) {
		if len(raw) > 3*64 {
			raw = raw[:3*64]
		}
		s, events := nilScheduleCase(t, seed, sites, procs, dedicated, raw)
		checkNilScheduleMatchesReference(t, s, events)
	})
}

func TestReplayEmpty(t *testing.T) {
	s := testSim(t)
	got, err := s.ReplayTrace(nil)
	if err != nil || got != 0 {
		t.Errorf("empty replay = %v, %v", got, err)
	}
}

func TestReplaySingleMessage(t *testing.T) {
	s := testSim(t)
	got, err := s.ReplayTrace([]trace.Event{{Src: 0, Dst: 2, Bytes: 10e6}})
	if err != nil {
		t.Fatal(err)
	}
	want := 10e6/10e6 + 0.1
	if !almost(got.Float(), want, 1e-9) {
		t.Errorf("replay = %v, want %v", got, want)
	}
}

func TestReplayDependencyChain(t *testing.T) {
	s := testSim(t)
	// 0→2 (cross), then 2→1 (cross back), then 1→0 (intra would be wrong:
	// 1 and 0 share site 0, so intra at NIC rate): latencies accumulate
	// along the chain because each receiver is synchronized.
	events := []trace.Event{
		{Src: 0, Dst: 2, Bytes: 10e6},  // ends t=1, arrives 1.1
		{Src: 2, Dst: 1, Bytes: 10e6},  // starts 1.1, ends 2.1, arrives 2.2
		{Src: 1, Dst: 0, Bytes: 100e6}, // intra: starts 2.2, ends 3.2, arrives 3.201
	}
	got, err := s.ReplayTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got.Float(), 3.201, 1e-6) {
		t.Errorf("chain replay = %v, want 3.201", got)
	}
}

func TestReplayWANSerialization(t *testing.T) {
	s := testSim(t)
	// Two independent senders on the same WAN pipe serialize FIFO.
	events := []trace.Event{
		{Src: 0, Dst: 2, Bytes: 10e6},
		{Src: 1, Dst: 3, Bytes: 10e6},
	}
	got, err := s.ReplayTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	// First: 0→1s; second queues: 1→2s; arrival 2.1.
	if !almost(got.Float(), 2.1, 1e-9) {
		t.Errorf("serialized replay = %v, want 2.1", got)
	}
}

func TestReplayOppositeDirectionsIndependent(t *testing.T) {
	s := testSim(t)
	// The (0,1) and (1,0) WAN pipes are distinct resources.
	events := []trace.Event{
		{Src: 0, Dst: 2, Bytes: 10e6},
		{Src: 3, Dst: 1, Bytes: 10e6},
	}
	got, err := s.ReplayTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got.Float(), 1.1, 1e-9) {
		t.Errorf("bidirectional replay = %v, want 1.1 (independent pipes)", got)
	}
}

func TestReplayValidation(t *testing.T) {
	s := testSim(t)
	bad := [][]trace.Event{
		{{Src: -1, Dst: 0, Bytes: 1}},
		{{Src: 0, Dst: 9, Bytes: 1}},
		{{Src: 2, Dst: 2, Bytes: 1}},
		{{Src: 0, Dst: 1, Bytes: -1}},
	}
	for i, events := range bad {
		if _, err := s.ReplayTrace(events); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReplayRewardsColocation(t *testing.T) {
	s := testSim(t)
	heavyPair := func(a, b int) []trace.Event {
		return []trace.Event{
			{Src: a, Dst: b, Bytes: 20e6},
			{Src: b, Dst: a, Bytes: 20e6},
		}
	}
	intra, err := s.ReplayTrace(heavyPair(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	cross, err := s.ReplayTrace(heavyPair(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if intra*3 > cross {
		t.Errorf("intra %v not ≪ cross %v", intra, cross)
	}
}

// Property: replay time is monotone under event appending and at least the
// single-message lower bound of each event.
func TestQuickReplayMonotone(t *testing.T) {
	s, err := New(testCloud(), []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []uint32) bool {
		if len(raw) > 15 {
			raw = raw[:15]
		}
		var events []trace.Event
		prev := units.Seconds(-1)
		for _, r := range raw {
			src := int(r % 4)
			dst := int((r / 4) % 4)
			if src == dst {
				dst = (dst + 1) % 4
			}
			events = append(events, trace.Event{Src: src, Dst: dst, Bytes: int64(r%100) * 1e5})
			got, err := s.ReplayTrace(events)
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

// Property: replay is never faster than the fluid phase engine's makespan
// lower bound intuition — specifically, at least the max single-message
// service time.
func TestQuickReplayLowerBound(t *testing.T) {
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
		var events []trace.Event
		lower := units.Seconds(0)
		for _, r := range raw {
			src := int(r % 4)
			dst := int((r / 4) % 4)
			if src == dst {
				dst = (dst + 1) % 4
			}
			bytes := int64(r%50+1) * 1e5
			events = append(events, trace.Event{Src: src, Dst: dst, Bytes: bytes})
			capacity, lat, cross := s.link(src, dst)
			rate := s.nic[src]
			if cross && capacity < rate {
				rate = capacity
			}
			if lb := units.Bytes(bytes).Over(rate) + lat; lb > lower {
				lower = lb
			}
		}
		got, err := s.ReplayTrace(events)
		if err != nil {
			return false
		}
		return got >= lower-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
