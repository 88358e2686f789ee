// Package trace records and compresses application communication traces.
//
// It stands in for CYPRESS (Zhai et al., SC'14), which the paper uses to
// obtain the communication pattern matrix CG and message-count matrix AG by
// combining static structure extraction with runtime trace compression.
// Workloads from internal/apps emit their messages into one of two sinks
// (programs on the virtual MPI runtime, into a Recorder):
//
//   - A Recorder keeps every message as an Event (the "runtime" half),
//     for the readers that need the stream itself: loop compression,
//     where Compress recovers each process's nested-loop structure (the
//     "structure" half), and netsim's message-level replay. Its Graph
//     aggregates the events into the CG/AG matrices.
//   - A GraphSink adds each message straight to a comm.Graph and stores
//     nothing else, for callers that need only the matrices, as the
//     paper's mapper does.
//
// Both make the same checks and the same AddTraffic calls, in send
// order, so they yield bit-identical graphs.
package trace

import (
	"fmt"

	"geoprocmap/internal/comm"
)

// Event is a single point-to-point message: src sent Bytes bytes to Dst.
// Tag carries an application-defined phase label (e.g. iteration kind).
type Event struct {
	Src   int
	Dst   int
	Bytes int64
	Tag   int
}

// GraphSink adds each message, as one message of its size, to G, keeping
// no event, index or tag.
type GraphSink struct{ G *comm.Graph }

// MustSend is Recorder.MustSend for the graph: it panics on a message
// Recorder.Send would reject, and otherwise adds it to G.
func (s GraphSink) MustSend(src, dst int, bytes int64, _ int) {
	if err := checkSend(s.G.N(), src, dst, bytes); err != nil {
		panic(err)
	}
	s.G.AddTraffic(src, dst, float64(bytes), 1)
}

// checkSend validates one message of an n-process program.
func checkSend(n, src, dst int, bytes int64) error {
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("trace: endpoint out of range: %d→%d with %d processes", src, dst, n)
	}
	if src == dst {
		return fmt.Errorf("trace: self-message on process %d", src)
	}
	if bytes < 0 {
		return fmt.Errorf("trace: negative message size %d", bytes)
	}
	return nil
}

// Recorder accumulates message events from a virtual-MPI program run.
type Recorder struct {
	n      int
	events []Event
}

// NewRecorder returns a Recorder for an n-process program.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		panic(fmt.Sprintf("trace: invalid process count %d", n)) //geolint:ignore libpanic process count comes from validated World construction
	}
	return &Recorder{n: n}
}

// N returns the number of processes.
func (r *Recorder) N() int { return r.n }

// Send records a message of size bytes from src to dst with the given tag.
// Self-messages are rejected — the virtual-MPI layer never sends to itself.
func (r *Recorder) Send(src, dst int, bytes int64, tag int) error {
	if err := checkSend(r.n, src, dst, bytes); err != nil {
		return err
	}
	r.events = append(r.events, Event{Src: src, Dst: dst, Bytes: bytes, Tag: tag})
	return nil
}

// MustSend is Send for program generators whose endpoints are correct by
// construction; it panics on error.
func (r *Recorder) MustSend(src, dst int, bytes int64, tag int) {
	if err := r.Send(src, dst, bytes, tag); err != nil {
		panic(err)
	}
}

// Len returns the total number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Events returns the global event sequence in record order. The returned
// slice is shared; callers must not modify it.
func (r *Recorder) Events() []Event { return r.events }

// Graph aggregates the recorded events into the application's combined
// CG/AG communication pattern.
func (r *Recorder) Graph() *comm.Graph {
	g := comm.NewGraph(r.n)
	for _, e := range r.events {
		g.AddTraffic(e.Src, e.Dst, float64(e.Bytes), 1)
	}
	return g
}

// TotalBytes returns the sum of all message sizes.
func (r *Recorder) TotalBytes() int64 {
	var t int64
	for _, e := range r.events {
		t += e.Bytes
	}
	return t
}
