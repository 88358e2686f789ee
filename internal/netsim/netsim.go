// Package netsim is a flow-level discrete-event network simulator for
// geo-distributed clouds — the reproduction's substitute for the paper's
// ns-2 cluster simulations and, combined with the workload compute models,
// for its Amazon EC2 measurements.
//
// The network model follows the paper's site-pair formulation: every
// ordered site pair (k, l) with k ≠ l is one shared WAN pipe of capacity
// BT(k, l) and propagation delay LT(k, l); all concurrent messages between
// those two sites contend for that pipe. Within a site the fabric is
// non-blocking, so intra-site flows are bounded only by each endpoint's
// NIC (whose rate is the measured intra-site pair bandwidth BT(k, k)).
// Endpoint NICs also bound WAN flows. Rates are allocated max-min fairly
// across all constraints by progressive filling, recomputed at every flow
// arrival or completion — the classic fluid approximation of TCP sharing
// that flow-level simulators use.
//
// Three engines are provided:
//
//   - Simulator.ReplayTrace: a logical-clock replay of a recorded event
//     stream, the experiments' default for application communication time.
//   - Simulator.SimulatePhase: the exact event-driven engine with NIC
//     coupling (used for paper-scale runs, 64–256 processes).
//   - Simulator.SimulatePhasePS: an O(F log F) analytic per-link
//     processor-sharing engine without NIC coupling (used for the largest
//     Figure 7 scales, 1024–8192 processes, where the event engine's
//     per-event rate recomputation would dominate).
//
// The replay and the event-driven engine each have one loop, the
// fault-aware one (faultsim.go): with no fault schedule it reproduces the
// healthy network exactly, so ReplayTrace and SimulatePhase are that loop
// at schedule time zero with the report dropped.
//
// An application iteration is simulated as communication sub-phases
// (messages grouped by trace tag, e.g. a reduce must finish before the
// following broadcast starts); PhasesFromEvents builds them.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"geoprocmap/internal/faults"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/trace"
	"geoprocmap/internal/units"
)

// Message is one point-to-point transfer between processes.
type Message struct {
	Src   int // sending process
	Dst   int // receiving process
	Bytes units.Bytes
}

// Options tunes the simulator's network model.
type Options struct {
	// DedicatedWAN disables the shared-pipe model: each process pair gets
	// the full site-pair bandwidth BT(k, l) with no cross-flow contention,
	// matching the paper's α–β formulation (and its ns-2 setup, where
	// every node pair is simulated with the calibrated pair bandwidth).
	// The default (false) models each ordered site pair as one shared WAN
	// pipe — more pessimistic and closer to real cross-region behavior.
	DedicatedWAN bool
	// Faults attaches a fault schedule: outages block senders until
	// DefaultFaultDeadline, degradations scale rates and latencies, losses
	// force retransmissions. Every entry point consults it; the *Faulty
	// variants also position the run in schedule time and return the
	// structured faults.Report. nil simulates a healthy network.
	Faults *faults.Schedule
}

// DefaultFaultDeadline is how long a sender blocks on a dead link before
// abandoning the message.
const DefaultFaultDeadline = units.Seconds(10.0)

// Simulator simulates communication phases of an application whose
// processes are placed on the sites of a cloud.
type Simulator struct {
	cloud   *netmodel.Cloud
	mapping []int // process → site
	nic     []units.BytesPerSec
	opt     Options
}

// New builds a simulator with default options (shared WAN pipes). See
// NewWithOptions.
func New(cloud *netmodel.Cloud, mapping []int) (*Simulator, error) {
	return NewWithOptions(cloud, mapping, Options{})
}

// NewWithOptions builds a simulator for the given cloud and process
// placement. mapping[i] is the site of process i; the per-site process
// counts must respect the cloud's capacities (one process per node, as in
// the paper).
func NewWithOptions(cloud *netmodel.Cloud, mapping []int, opt Options) (*Simulator, error) {
	if cloud == nil {
		return nil, fmt.Errorf("netsim: nil cloud")
	}
	if len(mapping) == 0 {
		return nil, fmt.Errorf("netsim: empty mapping")
	}
	load := make([]int, cloud.M())
	for i, s := range mapping {
		if s < 0 || s >= cloud.M() {
			return nil, fmt.Errorf("netsim: mapping[%d] = %d out of range [0,%d)", i, s, cloud.M())
		}
		load[s]++
	}
	for j, l := range load {
		if l > cloud.Sites[j].Nodes {
			return nil, fmt.Errorf("netsim: %d processes on site %d, capacity %d", l, j, cloud.Sites[j].Nodes)
		}
	}
	// Each process runs on its own instance; its NIC rate is the
	// intra-site pair bandwidth of its site.
	nic := make([]units.BytesPerSec, len(mapping))
	for i, s := range mapping {
		nic[i] = cloud.Bandwidth(s, s)
	}
	return &Simulator{cloud: cloud, mapping: append([]int(nil), mapping...), nic: nic, opt: opt}, nil
}

// link returns the constrained WAN capacity and latency for a message,
// with ok=false for intra-site traffic (bounded by NICs only).
func (s *Simulator) link(src, dst int) (capacity units.BytesPerSec, latency units.Seconds, cross bool) {
	k, l := s.mapping[src], s.mapping[dst]
	if k == l {
		return 0, s.cloud.Latency(k, k), false
	}
	return s.cloud.Bandwidth(k, l), s.cloud.Latency(k, l), true
}

// SimulatePhase runs the event-driven engine on one set of concurrent
// messages and returns the phase makespan: the time until the last message
// is delivered (transmission under max-min fair rates plus the link's
// propagation delay). An empty phase takes zero time. It is
// SimulatePhaseFaulty at schedule time zero with the report dropped.
func (s *Simulator) SimulatePhase(msgs []Message) (units.Seconds, error) {
	makespan, _, err := s.SimulatePhaseFaulty(msgs, 0)
	return makespan, err
}

// solveFluid registers the constraints of the flows (scaling each WAN
// capacity by the flow's wanFactor) and runs the progressive-filling
// event loop, returning the time of the last delivery.
func (s *Simulator) solveFluid(flows []*flowState) (units.Seconds, error) {
	// Constraint registry: WAN pipes (per ordered site pair) plus one
	// egress and one ingress constraint per participating process.
	reg := newConstraintSet()
	for fi, f := range flows {
		k, l := s.mapping[f.src], s.mapping[f.dst]
		if k != l {
			if s.opt.DedicatedWAN {
				// Per-flow rate cap at the site-pair bandwidth, no
				// cross-flow contention on the WAN.
				f.constraints = append(f.constraints, reg.id(conKey{kind: conFlowCap, a: fi}, s.cloud.Bandwidth(k, l).Scale(f.wanFactor)))
			} else {
				f.constraints = append(f.constraints, reg.id(conKey{kind: conLink, a: k, b: l}, s.cloud.Bandwidth(k, l).Scale(f.wanFactor)))
			}
		}
		f.constraints = append(f.constraints,
			reg.id(conKey{kind: conEgress, a: f.src}, s.nic[f.src]),
			reg.id(conKey{kind: conIngress, a: f.dst}, s.nic[f.dst]))
	}

	now := units.Seconds(0)
	makespan := units.Seconds(0)
	active := flows
	for len(active) > 0 {
		rates := reg.maxMinRates(active)
		// Find the earliest completion under current rates.
		dt := units.Seconds(math.Inf(1))
		for i, f := range active {
			if rates[i] <= 0 {
				return 0, fmt.Errorf("netsim: flow %d→%d starved (zero rate)", f.src, f.dst)
			}
			if t := f.remaining.Over(rates[i]); t < dt {
				dt = t
			}
		}
		now += dt
		next := active[:0]
		for i, f := range active {
			f.remaining -= rates[i].Times(dt)
			if f.remaining <= units.Bytes(1e-9) {
				if d := now + f.latency; d > makespan {
					makespan = d
				}
				continue
			}
			next = append(next, f)
		}
		active = next
	}
	return makespan, nil
}

// SimulatePhasePS runs the analytic per-link processor-sharing engine: the
// flows on each pipe share it equally and pipes are independent. Intra-site
// traffic is bounded per endpoint NIC, approximated as a site-local pool of
// capacity BT(k,k) × nodes/2 (every node can send and receive at NIC rate
// simultaneously, so a site sustains nodes/2 concurrent full-rate pairs).
func (s *Simulator) SimulatePhasePS(msgs []Message) (units.Seconds, error) {
	flows, maxLatency, err := s.buildFlows(msgs)
	if err != nil {
		return 0, err
	}
	if len(flows) == 0 {
		return maxLatency, nil
	}
	type pool struct {
		capacity units.BytesPerSec
		latency  units.Seconds
		sizes    []float64
	}
	pools := map[conKey]*pool{}
	for _, f := range flows {
		k, l := s.mapping[f.src], s.mapping[f.dst]
		key := conKey{kind: conLink, a: k, b: l}
		if k != l && s.opt.DedicatedWAN {
			// Each process pair gets its own pipe at the site-pair rate.
			key = conKey{kind: conFlowCap, a: f.src, b: f.dst}
		}
		p := pools[key]
		if p == nil {
			capacity := s.cloud.Bandwidth(k, l)
			if k == l {
				capacity = capacity.Scale(math.Max(1, float64(s.cloud.Sites[k].Nodes)/2))
			}
			p = &pool{capacity: capacity, latency: s.cloud.Latency(k, l)}
			pools[key] = p
		}
		p.sizes = append(p.sizes, f.remaining.Float())
	}
	makespan := maxLatency
	for _, p := range pools {
		sort.Float64s(p.sizes)
		// Processor sharing with equal shares: completion time of the
		// largest flow is Σ marginal drain times.
		t, prev := units.Seconds(0), 0.0
		activeCount := float64(len(p.sizes))
		for _, b := range p.sizes {
			t += units.Bytes(b - prev).Scale(activeCount).Over(p.capacity)
			prev = b
			activeCount--
		}
		if d := t + p.latency; d > makespan {
			makespan = d
		}
	}
	return makespan, nil
}

type flowState struct {
	src, dst    int
	remaining   units.Bytes
	latency     units.Seconds
	constraints []int
	// wanFactor scales the flow's WAN capacity (bandwidth-degradation
	// faults); 1 on a healthy network.
	wanFactor float64
}

// buildFlows validates messages and returns the nonzero flows plus the
// maximum latency among zero-byte messages (delivered after one
// propagation delay without consuming bandwidth).
func (s *Simulator) buildFlows(msgs []Message) ([]*flowState, units.Seconds, error) {
	flows := make([]*flowState, 0, len(msgs))
	maxLatency := units.Seconds(0)
	for i, m := range msgs {
		if m.Src < 0 || m.Src >= len(s.mapping) || m.Dst < 0 || m.Dst >= len(s.mapping) {
			return nil, 0, fmt.Errorf("netsim: message %d endpoint out of range: %d→%d", i, m.Src, m.Dst)
		}
		if m.Src == m.Dst {
			return nil, 0, fmt.Errorf("netsim: message %d is a self-send on process %d", i, m.Src)
		}
		if m.Bytes < 0 {
			return nil, 0, fmt.Errorf("netsim: message %d has negative size", i)
		}
		_, lat, _ := s.link(m.Src, m.Dst)
		if m.Bytes == 0 { //geolint:ignore floatcmp zero-byte messages carry exact int64 event sizes
			if lat > maxLatency {
				maxLatency = lat
			}
			continue
		}
		flows = append(flows, &flowState{src: m.Src, dst: m.Dst, remaining: m.Bytes, latency: lat, wanFactor: 1})
	}
	return flows, maxLatency, nil
}

// --- constraint bookkeeping -------------------------------------------

type conKind int

const (
	conLink conKind = iota
	conEgress
	conIngress
	conFlowCap
)

type conKey struct {
	kind conKind
	a, b int
}

type constraintSet struct {
	ids        map[conKey]int
	capacities []units.BytesPerSec

	// Scratch reused across maxMinRates calls. The progressive-filling
	// solver reruns at every flow arrival or completion — O(F) times per
	// phase — so its working arrays are hoisted here and rebuilt with the
	// append-reset idiom instead of being reallocated per event. A
	// constraintSet belongs to one solveFluid call, so the scratch is
	// never shared across goroutines (Simulator itself stays read-only).
	rates    []units.BytesPerSec
	residual []units.BytesPerSec
	counts   []int
	frozen   []bool
}

func newConstraintSet() *constraintSet {
	return &constraintSet{ids: map[conKey]int{}}
}

func (cs *constraintSet) id(key conKey, capacity units.BytesPerSec) int {
	if id, ok := cs.ids[key]; ok {
		return id
	}
	id := len(cs.capacities)
	cs.ids[key] = id
	cs.capacities = append(cs.capacities, capacity)
	return id
}

// maxMinRates computes the max-min fair allocation for the active flows by
// progressive filling: repeatedly saturate the tightest constraint, freeze
// its flows at the fair share, and subtract. The returned slice is the
// set's scratch buffer: it is valid until the next maxMinRates call.
//
//geolint:allocfree
func (cs *constraintSet) maxMinRates(flows []*flowState) []units.BytesPerSec {
	cs.rates = cs.rates[:0]
	cs.frozen = cs.frozen[:0]
	for range flows {
		cs.rates = append(cs.rates, 0)
		cs.frozen = append(cs.frozen, false)
	}
	cs.residual = append(cs.residual[:0], cs.capacities...)
	cs.counts = cs.counts[:0]
	for range cs.capacities {
		cs.counts = append(cs.counts, 0)
	}
	rates, residual, counts, frozen := cs.rates, cs.residual, cs.counts, cs.frozen
	for _, f := range flows {
		for _, c := range f.constraints {
			counts[c]++
		}
	}
	remaining := len(flows)
	for remaining > 0 {
		// Tightest constraint: min residual/count over constraints with
		// unfrozen flows.
		bestC, bestShare := -1, units.BytesPerSec(math.Inf(1))
		for c := range residual {
			if counts[c] == 0 {
				continue
			}
			if share := residual[c].Div(float64(counts[c])); share < bestShare {
				bestC, bestShare = c, share
			}
		}
		if bestC == -1 {
			break // no active constraints (cannot happen: every flow has ≥2)
		}
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			bound := false
			for _, c := range f.constraints {
				if c == bestC {
					bound = true
					break
				}
			}
			if !bound {
				continue
			}
			rates[i] = bestShare
			frozen[i] = true
			remaining--
			for _, c := range f.constraints {
				residual[c] -= bestShare
				counts[c]--
			}
		}
	}
	return rates
}

// --- application-level simulation ---------------------------------------

// PhasesFromEvents splits a recorded event stream into sequential
// communication sub-phases by tag (in ascending tag order): the messages of
// one tag are concurrent, and a sub-phase starts only after the previous
// one is delivered (reduce before broadcast, forward sweep before backward
// sweep).
func PhasesFromEvents(events []trace.Event) [][]Message {
	byTag := map[int][]Message{}
	var tags []int
	for _, e := range events {
		if _, ok := byTag[e.Tag]; !ok {
			tags = append(tags, e.Tag)
		}
		byTag[e.Tag] = append(byTag[e.Tag], Message{Src: e.Src, Dst: e.Dst, Bytes: units.Bytes(e.Bytes)})
	}
	sort.Ints(tags)
	var out [][]Message
	for _, t := range tags {
		out = append(out, byTag[t])
	}
	return out
}
