package service

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Pool bounds the solve jobs that run at once. It holds workers slots:
// a job takes one to start and gives it back when it returns. A caller
// that finds every slot taken waits for one, and waiting callers are
// served in arrival order (a channel serves its blocked senders so).
// Once queueDepth callers wait, the next is rejected at once with
// ErrQueueFull — load shedding keeps latency bounded instead of letting
// the queue grow. A caller whose context ends while it waits leaves the
// queue at once, so a dead request never holds a place in it, and its
// job never runs.
type Pool struct {
	// admitted holds one element per admitted caller, running or
	// waiting: workers + queueDepth places.
	admitted chan struct{}
	slots    chan struct{} // one element per running job
	closed   atomic.Bool
}

// ErrQueueFull is returned by Submit when every slot is taken and the
// queue of waiting callers is at capacity; callers translate it to 503
// Service Unavailable.
var ErrQueueFull = fmt.Errorf("service: solve queue full")

// ErrPoolClosed is returned by Submit after Close; the daemon is
// draining.
var ErrPoolClosed = fmt.Errorf("service: pool closed")

// NewPool returns a pool that runs at most workers jobs at once and
// lets at most queueDepth callers wait for a slot.
func NewPool(workers, queueDepth int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	return &Pool{admitted: make(chan struct{}, workers+queueDepth), slots: make(chan struct{}, workers)}
}

// Submit runs run on a goroutine of its own once a slot is free, and
// waits until it has returned or ctx ends. When ctx ends first, Submit
// returns the context error; a job that had not started by then never
// runs, and one that had keeps its slot until it returns. A nil return
// guarantees run was executed. The job function must capture its own
// result delivery.
func (p *Pool) Submit(ctx context.Context, run func()) error {
	if p.closed.Load() {
		return ErrPoolClosed
	}
	select {
	case p.admitted <- struct{}{}:
	default:
		return ErrQueueFull
	}
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		<-p.admitted
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		// The slot came free as ctx ended: the job is not worth starting.
		p.release()
		return err
	}
	done := make(chan struct{})
	go func() {
		defer p.release()
		run()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release gives back a job's slot and its caller's place.
func (p *Pool) release() {
	<-p.slots
	<-p.admitted
}

// QueueDepth reports the number of callers waiting for a slot. During
// Close it counts the places Close has taken too.
func (p *Pool) QueueDepth() int {
	return max(0, len(p.admitted)-len(p.slots))
}

// Close stops admission and waits until every admitted job has returned,
// those still waiting for a slot included — the drain barrier geomapd
// leans on after the HTTP listener shuts down. It does so by taking
// every place itself: a place comes free only when a job returns or its
// caller leaves the queue, so once Close holds them all, nothing
// admitted remains. A Submit that races Close may get ErrQueueFull
// rather than ErrPoolClosed. Close is idempotent.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for i := 0; i < cap(p.admitted); i++ {
		p.admitted <- struct{}{}
	}
}
