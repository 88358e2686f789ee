// Package mpi is a virtual MPI runtime: rank programs written in Go
// against a Send/Recv/collectives API execute on the modeled
// geo-distributed cloud under virtual time.
//
// It is the reproduction's substitute for the MPI ecosystem the paper runs
// on (MPICH over EC2): the evaluation workloads are *programs*, and this
// runtime lets such programs be (a) profiled — every message lands in a
// trace.Recorder, from which the mapper's CG/AG matrices are aggregated —
// and (b) timed under a placement, with message costs from the cloud's
// α–β site-pair model.
//
// Semantics:
//
//   - Execution is deterministic. Ranks run as goroutines but are
//     scheduled cooperatively: exactly one rank runs at a time, and the
//     scheduler always grants the grantable rank with the smallest
//     virtual clock (ties to the lowest rank id).
//   - Sends are synchronous (rendezvous): a Send/Recv pair completes at
//     max(sender clock, receiver clock) + LT + bytes/BT for the pair's
//     site link (NIC rate within a site), and both clocks advance to the
//     completion time. Messages match by (src, dst, tag) in FIFO order;
//     Recv accepts AnySource / AnyTag wildcards.
//   - Compute(d) advances only the calling rank's clock.
//   - If every live rank is blocked and nothing can match, the run aborts
//     with a deadlock error naming the stuck operations.
//
// Collective helpers (Barrier, Bcast, Reduce, Allreduce) are implemented
// on top of point-to-point in comm.go, so their traffic is visible to the
// profiler like any other message.
package mpi

import (
	"fmt"
	"sort"
	"sync"

	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/trace"
)

// Program is the per-rank body of a virtual-MPI application. It runs once
// per rank; returning an error aborts the whole run.
type Program func(c *Comm) error

// World executes programs on a cloud under a process placement.
type World struct {
	cloud   *netmodel.Cloud
	mapping []int
}

// NewWorld validates the placement against the cloud (one process per
// node) and returns a runtime.
func NewWorld(cloud *netmodel.Cloud, mapping []int) (*World, error) {
	if cloud == nil {
		return nil, fmt.Errorf("mpi: nil cloud")
	}
	if len(mapping) == 0 {
		return nil, fmt.Errorf("mpi: empty mapping")
	}
	load := make([]int, cloud.M())
	for i, s := range mapping {
		if s < 0 || s >= cloud.M() {
			return nil, fmt.Errorf("mpi: mapping[%d] = %d out of range [0,%d)", i, s, cloud.M())
		}
		load[s]++
	}
	for j, l := range load {
		if l > cloud.Sites[j].Nodes {
			return nil, fmt.Errorf("mpi: %d processes on site %d, capacity %d", l, j, cloud.Sites[j].Nodes)
		}
	}
	return &World{cloud: cloud, mapping: append([]int(nil), mapping...)}, nil
}

// N returns the number of ranks.
func (w *World) N() int { return len(w.mapping) }

// Result is the outcome of a run.
type Result struct {
	// Elapsed is the virtual makespan: the largest rank clock at exit.
	Elapsed float64
	// RankClocks holds each rank's final virtual time.
	RankClocks []float64
	// Trace records every message sent, for profiling.
	Trace *trace.Recorder
}

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// opKind enumerates the operations ranks yield to the scheduler.
type opKind int

const (
	opSend opKind = iota
	opRecv
	opExit
	opErr
)

// request is what a rank submits to the scheduler when it reaches a
// blocking operation (or terminates).
type request struct {
	kind  opKind
	rank  int
	peer  int // dst for send; src or AnySource for recv
	tag   int
	bytes int64
	clock float64 // the rank's virtual time when it blocked
	err   error
	// resume delivers the operation's completion time when the scheduler
	// grants the rank its next slice; closed on abort.
	resume chan float64
	seq    int64
	// endTime is filled by the scheduler when the operation matches.
	endTime float64
}

// Comm is a rank's handle to the runtime.
type Comm struct {
	rank  int
	world *World
	sched *scheduler
	clock float64
}

// Rank returns the caller's rank id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.N() }

// Compute advances the rank's virtual clock by d seconds of local work.
func (c *Comm) Compute(d float64) error {
	if d < 0 {
		return fmt.Errorf("mpi: rank %d: negative compute time", c.rank)
	}
	c.clock += d
	return nil
}

// Send transmits bytes to rank dst with the given tag and blocks until the
// matching Recv completes (rendezvous semantics).
func (c *Comm) Send(dst int, bytes int64, tag int) error {
	if dst < 0 || dst >= c.world.N() {
		return fmt.Errorf("mpi: rank %d: send to invalid rank %d", c.rank, dst)
	}
	if dst == c.rank {
		return fmt.Errorf("mpi: rank %d: self-send", c.rank)
	}
	if bytes < 0 {
		return fmt.Errorf("mpi: rank %d: negative message size", c.rank)
	}
	if tag < 0 {
		return fmt.Errorf("mpi: rank %d: negative tag %d (reserved for wildcards)", c.rank, tag)
	}
	return c.block(&request{kind: opSend, rank: c.rank, peer: dst, tag: tag, bytes: bytes, clock: c.clock})
}

// Recv blocks until a matching message arrives. src may be AnySource and
// tag may be AnyTag.
func (c *Comm) Recv(src, tag int) error {
	if src != AnySource && (src < 0 || src >= c.world.N()) {
		return fmt.Errorf("mpi: rank %d: recv from invalid rank %d", c.rank, src)
	}
	if src == c.rank {
		return fmt.Errorf("mpi: rank %d: self-receive", c.rank)
	}
	return c.block(&request{kind: opRecv, rank: c.rank, peer: src, tag: tag, clock: c.clock})
}

func (c *Comm) block(r *request) error {
	r.resume = make(chan float64)
	select {
	case c.sched.yieldCh[c.rank] <- r:
	case <-c.sched.done:
		return fmt.Errorf("mpi: rank %d: run aborted", c.rank)
	}
	select {
	case t := <-r.resume:
		c.clock = t
		return nil
	case <-c.sched.done:
		return fmt.Errorf("mpi: rank %d: run aborted", c.rank)
	}
}

// Run executes the program on every rank and returns the run's timing and
// trace.
func (w *World) Run(p Program) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("mpi: nil program")
	}
	s := newScheduler(w)
	return s.run(p)
}

// --- scheduler ------------------------------------------------------------

// rankState tracks one rank inside the scheduler. Exactly one of the
// following holds for a live rank:
//
//	unstarted             — goroutine waiting on start
//	running               — the single rank currently executing
//	pending != nil        — blocked on an unmatched operation
//	ready  != nil         — operation matched; waiting for its next slice
//	done                  — program returned
type rankState struct {
	comm      *Comm
	started   bool
	done      bool
	pending   *request
	ready     *request
	nextClock float64 // virtual time at which the rank would resume
	start     chan struct{}
}

type scheduler struct {
	world   *World
	ranks   []*rankState
	yieldCh []chan *request
	rec     *trace.Recorder
	seq     int64
	// done is closed exactly once when the run finishes (normally, on
	// abort, or on deadlock); every rank goroutine selects on it at each
	// blocking point, so no goroutine can outlive run.
	done chan struct{}
	// wg tracks the rank goroutines; run joins them before returning.
	wg sync.WaitGroup
}

func newScheduler(w *World) *scheduler {
	return &scheduler{
		world:   w,
		rec:     trace.NewRecorder(w.N()),
		yieldCh: make([]chan *request, w.N()),
		done:    make(chan struct{}),
	}
}

func (s *scheduler) run(p Program) (*Result, error) {
	n := s.world.N()
	s.ranks = make([]*rankState, n)
	// Close done on every exit path, then join the rank goroutines: each
	// one selects on done at its start gate, at every blocking operation,
	// and at its final yield, so Run never leaks a goroutine — not on
	// normal completion, not on abort, not on deadlock.
	defer func() {
		close(s.done)
		s.wg.Wait()
	}()
	for i := 0; i < n; i++ {
		st := &rankState{
			comm:  &Comm{rank: i, world: s.world, sched: s},
			start: make(chan struct{}),
		}
		s.ranks[i] = st
		s.yieldCh[i] = make(chan *request)
		s.wg.Add(1)
		go func(st *rankState, i int) {
			defer s.wg.Done()
			select {
			case <-st.start:
			case <-s.done:
				return
			}
			err := p(st.comm)
			kind := opExit
			if err != nil {
				kind = opErr
			}
			final := &request{kind: kind, rank: i, err: err, clock: st.comm.clock}
			select {
			case s.yieldCh[i] <- final:
			case <-s.done:
			}
		}(st, i)
	}

	live := n
	var firstErr error
	aborted := false
	for live > 0 && !aborted {
		// Grant the grantable rank (unstarted or ready) with the smallest
		// virtual clock.
		next := -1
		for i, st := range s.ranks {
			if st.done || st.pending != nil {
				continue
			}
			if next == -1 || st.nextClock < s.ranks[next].nextClock {
				next = i
			}
		}
		if next == -1 {
			// Everyone live is blocked on unmatched operations.
			if firstErr != nil {
				break
			}
			return nil, s.deadlockError()
		}
		st := s.ranks[next]
		if !st.started {
			st.started = true
			st.start <- struct{}{}
		} else {
			r := st.ready
			st.ready = nil
			r.resume <- r.endTime
		}
		// The granted rank runs alone until it yields.
		r := <-s.yieldCh[next]
		s.seq++
		r.seq = s.seq
		switch r.kind {
		case opExit:
			st.done = true
			live--
		case opErr:
			if firstErr == nil {
				firstErr = r.err
			}
			st.done = true
			live--
			aborted = true
		default:
			st.pending = r
			st.nextClock = r.clock
		}
		s.matchAll()
	}

	// Abort path: the deferred close(done) releases every parked rank —
	// blocked senders and receivers return an abort error from their
	// pending operation — and wg.Wait joins them.
	if firstErr != nil {
		return nil, firstErr
	}
	clocks := make([]float64, n)
	elapsed := 0.0
	for i, st := range s.ranks {
		clocks[i] = st.comm.clock
		if clocks[i] > elapsed {
			elapsed = clocks[i]
		}
	}
	return &Result{Elapsed: elapsed, RankClocks: clocks, Trace: s.rec}, nil
}

// matchAll pairs pending sends with pending receives until no more pairs
// match. Matched ranks become ready (they still wait for their next
// scheduling slice).
func (s *scheduler) matchAll() {
	for {
		send, recv := s.findMatch()
		if send == nil {
			return
		}
		k, l := s.world.mapping[send.rank], s.world.mapping[recv.rank]
		lat := s.world.cloud.LT.At(k, l)
		bw := s.world.cloud.BT.At(k, l)
		start := send.clock
		if recv.clock > start {
			start = recv.clock
		}
		end := start + lat + float64(send.bytes)/bw
		s.rec.MustSend(send.rank, recv.rank, send.bytes, send.tag)
		for _, r := range [2]*request{send, recv} {
			st := s.ranks[r.rank]
			st.pending = nil
			r.endTime = end
			st.ready = r
			st.nextClock = end
		}
	}
}

// findMatch returns the matchable (send, recv) pair with the lowest
// combined sequence number (FIFO fairness), or nils.
func (s *scheduler) findMatch() (*request, *request) {
	var bestSend, bestRecv *request
	var bestKey int64 = 1<<62 - 1
	for _, rst := range s.ranks {
		recv := rst.pending
		if recv == nil || recv.kind != opRecv {
			continue
		}
		for _, sst := range s.ranks {
			send := sst.pending
			if send == nil || send.kind != opSend {
				continue
			}
			if send.peer != recv.rank {
				continue
			}
			if recv.peer != AnySource && recv.peer != send.rank {
				continue
			}
			if recv.tag != AnyTag && recv.tag != send.tag {
				continue
			}
			if key := send.seq + recv.seq; key < bestKey {
				bestKey = key
				bestSend, bestRecv = send, recv
			}
		}
	}
	return bestSend, bestRecv
}

func (s *scheduler) deadlockError() error {
	var stuck []string
	for _, st := range s.ranks {
		if st.pending == nil {
			continue
		}
		r := st.pending
		switch r.kind {
		case opSend:
			stuck = append(stuck, fmt.Sprintf("rank %d: Send(dst=%d, tag=%d)", r.rank, r.peer, r.tag))
		case opRecv:
			stuck = append(stuck, fmt.Sprintf("rank %d: Recv(src=%d, tag=%d)", r.rank, r.peer, r.tag))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("mpi: deadlock: %v", stuck)
}
