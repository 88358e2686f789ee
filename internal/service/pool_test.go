package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(2, 4)
	defer p.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Submit(context.Background(), func() { ran.Add(1) }); err != nil {
				// Queue-full sheds are legitimate under this burst; only
				// executed jobs are counted below.
				if !errors.Is(err, ErrQueueFull) {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if ran.Load() == 0 {
		t.Error("no job executed")
	}
}

func TestPoolShedsWhenQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_ = p.Submit(context.Background(), func() { close(started); <-block })
	}()
	<-started
	// Worker busy; fill the single queue slot.
	go func() {
		_ = p.Submit(context.Background(), func() {})
	}()
	// Wait for the filler to occupy the slot, then expect a shed. The
	// worker is parked inside the first job, so the slot cannot drain.
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("filler never occupied the queue slot")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Submit(context.Background(), func() {}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
	close(block)
}

func TestPoolHonorsContextBeforeStart(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_ = p.Submit(context.Background(), func() { close(started); <-block })
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := p.Submit(ctx, func() { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	close(block)
	p.Close() // drain: the skipped job's slot is consumed without running it
	if ran {
		t.Error("expired job executed")
	}
}

func TestPoolCloseDrainsQueuedJobs(t *testing.T) {
	p := NewPool(1, 8)
	var ran atomic.Int64
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_ = p.Submit(context.Background(), func() { close(started); <-block; ran.Add(1) })
	}()
	<-started
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Submit(context.Background(), func() { ran.Add(1) })
		}()
	}
	// Wait for the submitters to enqueue behind the blocked worker.
	deadline := time.Now().Add(time.Second)
	for p.QueueDepth() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(block)
	p.Close()
	wg.Wait()
	if got := ran.Load(); got != 5 {
		t.Errorf("drained %d jobs, want 5", got)
	}
	if err := p.Submit(context.Background(), func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("post-close Submit err = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// TestPoolSkippedJobNeverReturnsNil recreates the race where a queued
// job's context expires just as a worker reaches it: both j.done and
// ctx.Done() become ready and Submit's select picks either. Whichever
// branch wins, a job that never executed must not report success.
func TestPoolSkippedJobNeverReturnsNil(t *testing.T) {
	for i := 0; i < 200; i++ {
		p := NewPool(1, 4)
		release := make(chan struct{})
		started := make(chan struct{})
		go func() {
			_ = p.Submit(context.Background(), func() { close(started); <-release })
		}()
		<-started
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Bool
		errCh := make(chan error, 1)
		go func() {
			errCh <- p.Submit(ctx, func() { ran.Store(true) })
		}()
		// Cancel and unblock the worker together so the skip and the
		// caller's ctx.Done race.
		cancel()
		close(release)
		if err := <-errCh; err == nil && !ran.Load() {
			t.Fatal("Submit returned nil for a job that never ran")
		}
		p.Close()
	}
}

// TestPoolExpiredWaitersLeaveTheQueue is the regression test for the
// queue-slot leak: jobs whose contexts expired while queued used to pin
// their places in the queue until a worker drained them, so a burst of
// timed-out requests shed live traffic with spurious ErrQueueFull. A
// caller whose context ends while it waits must leave the queue at once.
func TestPoolExpiredWaitersLeaveTheQueue(t *testing.T) {
	const depth = 4
	p := NewPool(1, depth)
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_ = p.Submit(context.Background(), func() { close(started); <-block })
	}()
	<-started

	// Fill every queue place with callers that are then cancelled: each
	// returns with its context error while the only slot is held.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var deadRan atomic.Int64
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Submit(ctx, func() { deadRan.Add(1) })
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled submitter got %v, want context.Canceled", err)
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueDepth() < depth {
		if time.Now().After(deadline) {
			t.Fatal("fillers never occupied the queue")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()

	// Every caller that filled the queue has gone. A live request must
	// be admitted — this returned ErrQueueFull when dead jobs kept their
	// places.
	var liveRan atomic.Bool
	liveErr := make(chan error, 1)
	go func() {
		liveErr <- p.Submit(context.Background(), func() { liveRan.Store(true) })
	}()
	// The live submitter blocks waiting for the held slot; give its
	// admission a moment, then verify it is the only one waiting.
	deadline = time.Now().Add(2 * time.Second)
	for p.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d after the live admission, want 1", p.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	if err := <-liveErr; err != nil {
		t.Fatalf("live submit err = %v, want admission (nil)", err)
	}
	if !liveRan.Load() {
		t.Error("live job admitted but never executed")
	}
	p.Close()
	if n := deadRan.Load(); n != 0 {
		t.Errorf("%d expired jobs executed, want 0", n)
	}
}

// TestPoolServesWaitersInArrivalOrder queues five callers behind a held
// slot, each admitted once the one before it waits, and requires their
// jobs to start in that order.
func TestPoolServesWaitersInArrivalOrder(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_ = p.Submit(context.Background(), func() { close(started); <-block })
	}()
	<-started
	const waiters = 5
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Submit(context.Background(), func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
		}()
		deadline := time.Now().Add(2 * time.Second)
		for p.QueueDepth() < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
		// QueueDepth counts a caller just before it blocks on the slot;
		// let it block before the next one arrives.
		time.Sleep(20 * time.Millisecond)
	}
	close(block)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("waiters started in order %v, want arrival order", order)
		}
	}
}

// TestPoolCloseWaitsForAbandonedJob requires a job whose caller returned
// at its deadline to keep its slot until it returns: a caller queued
// behind it starts only then, and Close returns only then.
func TestPoolCloseWaitsForAbandonedJob(t *testing.T) {
	p := NewPool(1, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	var finished atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- p.Submit(ctx, func() {
			close(started)
			<-release
			finished.Store(true)
		})
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller got %v, want context.Canceled", err)
	}
	var nextRan atomic.Bool
	nextDone := make(chan struct{})
	go func() {
		defer close(nextDone)
		err := p.Submit(context.Background(), func() {
			if !finished.Load() {
				t.Error("a queued job started while the abandoned job held the only slot")
			}
			nextRan.Store(true)
		})
		if err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the next caller never queued")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an abandoned job still ran")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	<-nextDone
	if !finished.Load() || !nextRan.Load() {
		t.Errorf("after Close: abandoned job finished %t, queued job ran %t; want both", finished.Load(), nextRan.Load())
	}
}

// TestPoolStress floods a small pool from many goroutines with mixed
// deadlines; meaningful under -race.
func TestPoolStress(t *testing.T) {
	p := NewPool(4, 64)
	defer p.Close()
	var wg sync.WaitGroup
	var executed atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx := context.Background()
				if i%5 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
					defer cancel()
				}
				err := p.Submit(ctx, func() { executed.Add(1) })
				if err != nil && !errors.Is(err, ErrQueueFull) &&
					!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if executed.Load() == 0 {
		t.Error("stress executed nothing")
	}
}
