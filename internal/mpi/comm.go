package mpi

import "fmt"

// This file implements collective operations on top of the runtime's
// point-to-point primitives, so a program's collective traffic is profiled
// and timed like any other messages. Because sends are rendezvous
// (blocking), the implementations use tree algorithms whose leaf-first
// orderings are deadlock-free: a parent posts receives for its children
// before sending to its own parent.

// treeChildren returns the binomial-tree children and parent of a rank
// relative to root. parent is -1 for the root.
func treeChildren(rank, root, n int) (children []int, parent int) {
	vr := (rank - root + n) % n
	limit := 1
	for limit < n {
		limit *= 2
	}
	if vr != 0 {
		limit = vr & (-vr) // lowest set bit
	}
	for span := 1; span < limit; span *= 2 {
		if vr+span < n {
			children = append(children, (vr+span+root)%n)
		}
	}
	if vr == 0 {
		return children, -1
	}
	return children, ((vr - (vr & (-vr))) + root) % n
}

// Reduce combines bytes from every rank to root over a binomial tree.
// Each rank must call it; the tag distinguishes concurrent collectives.
func (c *Comm) Reduce(root int, bytes int64, tag int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("mpi: rank %d: reduce to invalid root %d", c.rank, root)
	}
	children, parent := treeChildren(c.rank, root, c.Size())
	// Receive children in descending span order (the reverse of how the
	// broadcast tree fans out), then forward to the parent.
	for i := len(children) - 1; i >= 0; i-- {
		if err := c.Recv(children[i], tag); err != nil {
			return err
		}
	}
	if parent >= 0 {
		return c.Send(parent, bytes, tag)
	}
	return nil
}

// Bcast distributes bytes from root to every rank over a binomial tree.
func (c *Comm) Bcast(root int, bytes int64, tag int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("mpi: rank %d: bcast from invalid root %d", c.rank, root)
	}
	children, parent := treeChildren(c.rank, root, c.Size())
	if parent >= 0 {
		if err := c.Recv(parent, tag); err != nil {
			return err
		}
	}
	for _, child := range children {
		if err := c.Send(child, bytes, tag); err != nil {
			return err
		}
	}
	return nil
}

// Allreduce combines bytes across all ranks and leaves the result
// everywhere: a reduce to rank 0 followed by a broadcast. Two tags are
// consumed: tag and tag+1.
func (c *Comm) Allreduce(bytes int64, tag int) error {
	if err := c.Reduce(0, bytes, tag); err != nil {
		return err
	}
	return c.Bcast(0, bytes, tag+1)
}

// Barrier synchronizes all ranks (an Allreduce of one byte). Two tags are
// consumed: tag and tag+1.
//
//geolint:ignore deadcode rank-program API that the module's root benchmarks (bench_test.go) call
func (c *Comm) Barrier(tag int) error {
	return c.Allreduce(1, tag)
}

// SendRecv exchanges messages with a partner without deadlocking under
// rendezvous semantics: the lower rank sends first.
//
//geolint:ignore deadcode rank-program API; the apps package's program oracle in its tests calls it
func (c *Comm) SendRecv(partner int, bytes int64, tag int) error {
	if partner < 0 || partner >= c.Size() || partner == c.rank {
		return fmt.Errorf("mpi: rank %d: invalid SendRecv partner %d", c.rank, partner)
	}
	if c.rank < partner {
		if err := c.Send(partner, bytes, tag); err != nil {
			return err
		}
		return c.Recv(partner, tag)
	}
	if err := c.Recv(partner, tag); err != nil {
		return err
	}
	return c.Send(partner, bytes, tag)
}
