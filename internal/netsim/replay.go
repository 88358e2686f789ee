package netsim

import (
	"geoprocmap/internal/trace"
	"geoprocmap/internal/units"
)

// ReplayTrace simulates a recorded event stream with logical clocks — the
// standard trace-replay model for MPI programs without explicit receive
// events (LogGP-style). It is the engine the experiments use for
// application communication time, because the evaluation workloads are
// dependency chains (LU's pipelined wavefront, K-means' staged butterfly,
// DNN's reduction tree) whose per-message costs accumulate along the
// critical path rather than overlapping freely.
//
// Semantics, per event in trace order:
//
//   - a message occupies its resources FIFO: the sender's NIC egress, the
//     receiver's NIC ingress, and — for cross-site traffic — the shared
//     WAN pipe of the site pair, at the pipe's full rate;
//   - transmission starts when the sender's clock and all resources are
//     free, takes bytes/rate, and the sender blocks until it completes
//     (rendezvous send);
//   - delivery lands one propagation delay later and advances the
//     receiver's clock (messages synchronize the receiver, which is how
//     the wavefront pipeline and collective stages serialize).
//
// The result is the communication span: the time of the last delivery (or
// last send completion). Zero events take zero time. It is
// ReplayTraceFaulty at schedule time zero with the report dropped; use
// ReplayTraceFaulty to position the replay in schedule time and receive
// the structured fault report.
func (s *Simulator) ReplayTrace(events []trace.Event) (units.Seconds, error) {
	span, _, err := s.ReplayTraceFaulty(events, 0)
	return span, err
}
