package netsim

import (
	"fmt"
	"math"

	"geoprocmap/internal/faults"
	"geoprocmap/internal/trace"
	"geoprocmap/internal/units"
)

// This file holds the simulator's only replay and event-driven loops. They
// consult the Options.Faults schedule and return a structured faults.Report
// alongside the time; ReplayTrace and SimulatePhase call them at schedule
// time zero and drop the report. With no schedule every link is healthy
// (faults.Schedule.Link answers BWFactor = LatFactor = 1, no loss), every
// fault term is ×1 or +0, and the results are the healthy network's, bit
// for bit.
//
// Semantics shared by both engines:
//
//   - a message whose link is down when it would start blocks; the sender
//     probes with capped exponential backoff (accounted, not slept) until
//     the link recovers or DefaultFaultDeadline elapses, after which the
//     message is dropped and reported;
//   - bandwidth-degradation faults scale the WAN rate, latency spikes
//     scale the propagation delay;
//   - per-attempt loss retransmits the whole message with backoff between
//     attempts, capped at faults.DefaultMaxAttempts. Loss draws use the
//     stateless faults.Hash01 keyed by the schedule seed and the message
//     index, so a shared Simulator stays data-race-free and two runs with
//     the same seed and schedule produce bit-identical results.
//
// All methods are read-only on the Simulator (safe for concurrent use).

// ReplayTraceFaulty replays the event stream under the fault schedule,
// starting at absolute schedule time `start`. It returns the communication
// span (duration from start until the last delivery or abandonment) and
// the fault report for the run window.
func (s *Simulator) ReplayTraceFaulty(events []trace.Event, start float64) (units.Seconds, *faults.Report, error) {
	sched := s.opt.Faults
	rep := &faults.Report{}
	if sched != nil {
		rep.Schedule = sched.Name
	}
	const deadline = DefaultFaultDeadline
	n := len(s.mapping)
	clock := make([]float64, n)
	egressFree := make([]float64, n)
	ingressFree := make([]float64, n)
	for i := 0; i < n; i++ {
		clock[i], egressFree[i], ingressFree[i] = start, start, start
	}
	wanFree := map[[2]int]float64{}
	span := start
	for i, e := range events {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return 0, nil, fmt.Errorf("netsim: event %d endpoint out of range: %d→%d", i, e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			return 0, nil, fmt.Errorf("netsim: event %d is a self-send on process %d", i, e.Src)
		}
		if e.Bytes < 0 {
			return 0, nil, fmt.Errorf("netsim: event %d has negative size", i)
		}
		rep.Messages++
		k, l := s.mapping[e.Src], s.mapping[e.Dst]
		lat := s.cloud.LT.At(k, l)
		rate := s.nic[e.Src]
		if r := s.nic[e.Dst]; r < rate {
			rate = r
		}
		tS := math.Max(clock[e.Src], math.Max(egressFree[e.Src], ingressFree[e.Dst]))
		var wanKey [2]int
		shared := k != l && !s.opt.DedicatedWAN
		if shared {
			wanKey = [2]int{k, l}
			if w, ok := wanFree[wanKey]; ok && w > tS {
				tS = w
			}
		}

		st := sched.Link(k, l, tS)
		if st.Down {
			r := sched.NextLinkRecovery(k, l, tS)
			wait := units.Seconds(r - tS)
			if math.IsInf(r, 1) || wait > deadline {
				// The link will not come back in time: the sender probes
				// for a full deadline, then abandons the message.
				rep.Dropped++
				rep.Retries += faults.AttemptsForWait(deadline, faults.DefaultBackoffBase, faults.DefaultBackoffCap)
				rep.BlockedSeconds += deadline
				end := tS + deadline.Float()
				clock[e.Src] = end
				egressFree[e.Src] = end
				if end > span {
					span = end
				}
				continue
			}
			rep.Retries += faults.AttemptsForWait(wait, faults.DefaultBackoffBase, faults.DefaultBackoffCap)
			rep.BlockedSeconds += wait
			tS = r
			st = sched.Link(k, l, tS)
		}
		if k != l {
			if bw := s.cloud.Bandwidth(k, l).Scale(st.BWFactor); bw < rate {
				rate = bw
			}
		}
		lat *= st.LatFactor

		attempts := 1
		if st.LossProb > 0 {
			attempts = faults.Attempts(sched.Seed, int64(i), st.LossProb, 0)
		}
		backoffWait := units.Seconds(0)
		if attempts > 1 {
			rep.Retries += attempts - 1
			backoffWait = faults.BackoffTotal(attempts-1, faults.DefaultBackoffBase, faults.DefaultBackoffCap)
			rep.BlockedSeconds += backoffWait
		}
		end := tS + units.Bytes(e.Bytes).Over(rate).Scale(float64(attempts)).Float() + backoffWait.Float()
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
	rep.DeadSites, rep.DegradedPairs = sched.Summary(s.cloud.M(), start, span)
	return units.Seconds(span - start), rep, nil
}

// SimulatePhaseFaulty runs the fluid engine on one set of concurrent
// messages under the fault schedule's state at absolute time `start`
// (faults are sampled per phase, the engine's natural granularity). It
// returns the phase makespan and the fault report. Messages whose link is
// down past the deadline are dropped from the fluid solve but still hold
// their sender for the full deadline, which floors the makespan.
func (s *Simulator) SimulatePhaseFaulty(msgs []Message, start float64) (units.Seconds, *faults.Report, error) {
	sched := s.opt.Faults
	rep := &faults.Report{}
	if sched != nil {
		rep.Schedule = sched.Name
	}
	const deadline = DefaultFaultDeadline
	flows, maxLatency, err := s.buildFlows(msgs)
	if err != nil {
		return 0, nil, err
	}
	rep.Messages = len(msgs)
	makespan := maxLatency
	kept := flows[:0]
	for fi, f := range flows {
		k, l := s.mapping[f.src], s.mapping[f.dst]
		st := sched.Link(k, l, start)
		delay := units.Seconds(0)
		if st.Down {
			r := sched.NextLinkRecovery(k, l, start)
			wait := units.Seconds(r - start)
			if math.IsInf(r, 1) || wait > deadline {
				rep.Dropped++
				rep.Retries += faults.AttemptsForWait(deadline, faults.DefaultBackoffBase, faults.DefaultBackoffCap)
				rep.BlockedSeconds += deadline
				if deadline > makespan {
					makespan = deadline
				}
				continue
			}
			delay = wait
			rep.Retries += faults.AttemptsForWait(wait, faults.DefaultBackoffBase, faults.DefaultBackoffCap)
			rep.BlockedSeconds += wait
			st = sched.Link(k, l, r)
		}
		if st.LossProb > 0 {
			if attempts := faults.Attempts(sched.Seed, int64(fi), st.LossProb, 0); attempts > 1 {
				rep.Retries += attempts - 1
				bo := faults.BackoffTotal(attempts-1, faults.DefaultBackoffBase, faults.DefaultBackoffCap)
				delay += bo
				rep.BlockedSeconds += bo
				// Retransmissions resend the whole message.
				f.remaining = f.remaining.Scale(float64(attempts))
			}
		}
		f.wanFactor = st.BWFactor
		f.latency = f.latency.Scale(st.LatFactor) + delay
		kept = append(kept, f)
	}
	if len(kept) > 0 {
		fluid, err := s.solveFluid(kept)
		if err != nil {
			return 0, nil, err
		}
		if fluid > makespan {
			makespan = fluid
		}
	}
	rep.DeadSites, rep.DegradedPairs = sched.Summary(s.cloud.M(), start, start+makespan.Float())
	return makespan, rep, nil
}
