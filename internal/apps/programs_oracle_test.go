package apps

import (
	"fmt"

	"geoprocmap/internal/mpi"
)

// This file is the test oracle for the trace generators: each workload as
// a runnable mpi.Program — an actual rank program executing on the
// virtual-MPI runtime. For every workload the program's recorded
// communication graph is identical to the generator's (asserted by
// TestProgramsMatchGenerators), so profiling a *run* yields the same
// mapping problem as static generation, exactly the property the paper's
// CYPRESS pipeline relies on.
//
// Rendezvous semantics shape the implementations: wavefronts recv-before-
// send along the dependency DAG, symmetric exchanges use parity-ordered
// SendRecv (requiring even grid sides), and the irregular K-means shuffle
// is serialized by sender rank.

// ProgramFor returns the runnable equivalent of a workload for the given
// iteration count, or an error for apps without one.
func ProgramFor(a App, iters int) (mpi.Program, error) {
	if iters < 1 {
		return nil, fmt.Errorf("apps: program needs at least 1 iteration")
	}
	switch app := a.(type) {
	case *npb:
		return app.program(iters), nil
	case *KMeans:
		return app.program(iters), nil
	case *DNN:
		return app.program(iters), nil
	case *CG:
		return app.program(iters), nil
	case *MG:
		return app.program(iters), nil
	default:
		return nil, fmt.Errorf("apps: no program for %s", a.Name())
	}
}

// program renders an NPB kernel as a rank program.
func (a *npb) program(iters int) mpi.Program {
	return func(c *mpiComm) error {
		n := c.Size()
		rows, cols := gridDims(n)
		row, col := c.Rank()/cols, c.Rank()%cols
		rank := func(r, co int) int { return r*cols + co }
		if a.wraparound && (rows%2 != 0 && rows > 1 || cols%2 != 0 && cols > 1) {
			return fmt.Errorf("apps: %s program needs even grid sides, got %d×%d", a.name, rows, cols)
		}
		for it := 0; it < iters; it++ {
			if err := c.Compute(a.ComputeTime(n)); err != nil {
				return err
			}
			if a.wraparound {
				// Periodic face exchange, parity-ordered along each ring.
				if cols > 1 {
					east := rank(row, (col+1)%cols)
					west := rank(row, (col-1+cols)%cols)
					if err := exchange(c, east, west, col%2 == 0, a.eastBytes, TagFaceExchange); err != nil {
						return err
					}
				}
				if rows > 1 {
					south := rank((row+1)%rows, col)
					north := rank((row-1+rows)%rows, col)
					if err := exchange(c, south, north, row%2 == 0, a.southBytes, TagFaceExchange); err != nil {
						return err
					}
				}
				continue
			}
			// LU forward wavefront: recv from west/north, send east/south.
			if col > 0 {
				if err := c.Recv(rank(row, col-1), TagForwardSweep); err != nil {
					return err
				}
			}
			if row > 0 {
				if err := c.Recv(rank(row-1, col), TagForwardSweep); err != nil {
					return err
				}
			}
			if col+1 < cols {
				if err := c.Send(rank(row, col+1), a.eastBytes, TagForwardSweep); err != nil {
					return err
				}
			}
			if row+1 < rows {
				if err := c.Send(rank(row+1, col), a.southBytes, TagForwardSweep); err != nil {
					return err
				}
			}
			// Backward wavefront: recv from east/south, send west/north.
			if col+1 < cols {
				if err := c.Recv(rank(row, col+1), TagBackwardSweep); err != nil {
					return err
				}
			}
			if row+1 < rows {
				if err := c.Recv(rank(row+1, col), TagBackwardSweep); err != nil {
					return err
				}
			}
			if col > 0 {
				if err := c.Send(rank(row, col-1), a.eastBytes, TagBackwardSweep); err != nil {
					return err
				}
			}
			if row > 0 {
				if err := c.Send(rank(row-1, col), a.southBytes, TagBackwardSweep); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// mpiComm aliases the runtime handle so program bodies read naturally.
type mpiComm = mpi.Comm

// exchange swaps fixed-size messages with two ring neighbors (ahead and
// behind), sending first when first is true — the parity ordering that
// keeps rendezvous rings deadlock-free.
func exchange(c *mpiComm, ahead, behind int, first bool, bytes int64, tag int) error {
	if ahead == c.Rank() || behind == c.Rank() {
		return nil // degenerate ring of size 1
	}
	if first {
		if err := c.Send(ahead, bytes, tag); err != nil {
			return err
		}
		if err := c.Recv(ahead, tag); err != nil {
			return err
		}
		if err := c.Send(behind, bytes, tag); err != nil {
			return err
		}
		return c.Recv(behind, tag)
	}
	if err := c.Recv(behind, tag); err != nil {
		return err
	}
	if err := c.Send(behind, bytes, tag); err != nil {
		return err
	}
	if err := c.Recv(ahead, tag); err != nil {
		return err
	}
	return c.Send(ahead, bytes, tag)
}

// program renders parallel K-means as a rank program: recursive-doubling
// allreduce of the centroid block plus the skewed boundary shuffle.
func (k *KMeans) program(iters int) mpi.Program {
	return func(c *mpiComm) error {
		n := c.Size()
		me := c.Rank()
		block := k.blockBytes()
		pow := 1
		for pow*2 <= n {
			pow *= 2
		}
		for it := 0; it < iters; it++ {
			if err := c.Compute(k.ComputeTime(n)); err != nil {
				return err
			}
			// Fold extras onto the power-of-two core.
			if me >= pow {
				if err := c.Send(me-pow, block, TagReduce); err != nil {
					return err
				}
			} else if me+pow < n {
				if err := c.Recv(me+pow, TagReduce); err != nil {
					return err
				}
			}
			// Butterfly within the core.
			if me < pow {
				for span := 1; span < pow; span *= 2 {
					if err := c.SendRecv(me^span, block, TagReduce); err != nil {
						return err
					}
				}
			}
			// Unfold.
			if me >= pow {
				if err := c.Recv(me-pow, TagBroadcast); err != nil {
					return err
				}
			} else if me+pow < n {
				if err := c.Send(me+pow, block, TagBroadcast); err != nil {
					return err
				}
			}
			// Skewed boundary shuffle, serialized by sender rank so the
			// rendezvous sends always find posted receives.
			for sender := 0; sender < n; sender++ {
				vol := int64(float64(block) * skew(sender))
				for _, stride := range [2]int{17, 41} {
					partner := (sender*stride + 3) % n
					if partner == sender {
						continue
					}
					switch me {
					case sender:
						if err := c.Send(partner, vol, TagShuffle); err != nil {
							return err
						}
					case partner:
						if err := c.Recv(sender, TagShuffle); err != nil {
							return err
						}
					}
				}
			}
		}
		return nil
	}
}

// program renders DNN training as a rank program: local epochs with a
// binomial model reduction and broadcast — the runtime's tree collectives
// produce exactly the generator's edges.
func (d *DNN) program(iters int) mpi.Program {
	return func(c *mpiComm) error {
		for it := 0; it < iters; it++ {
			if err := c.Compute(d.ComputeTime(c.Size())); err != nil {
				return err
			}
			if err := c.Reduce(0, d.ModelBytes, TagReduce); err != nil {
				return err
			}
			if err := c.Bcast(0, d.ModelBytes, TagBroadcast); err != nil {
				return err
			}
		}
		return nil
	}
}

// program renders CG as a rank program. It requires a square grid with
// power-of-two sides (the NPB kernel's own constraint) so both the
// transpose pairing and the row-reduction pairing are involutions.
func (g *CG) program(iters int) mpi.Program {
	return func(c *mpiComm) error {
		n := c.Size()
		rows, cols := gridDims(n)
		if rows != cols {
			return fmt.Errorf("apps: CG program needs a square grid, got %d×%d", rows, cols)
		}
		if cols&(cols-1) != 0 {
			return fmt.Errorf("apps: CG program needs power-of-two grid sides, got %d", cols)
		}
		row, col := c.Rank()/cols, c.Rank()%cols
		rank := func(r, co int) int { return r*cols + co }
		transpose := rank(col, row)
		for it := 0; it < iters; it++ {
			if err := c.Compute(g.ComputeTime(n)); err != nil {
				return err
			}
			if transpose != c.Rank() {
				if err := c.SendRecv(transpose, g.SegmentBytes, TagFaceExchange); err != nil {
					return err
				}
			}
			for span := 1; span < cols; span *= 2 {
				partner := rank(row, col^span)
				if err := c.SendRecv(partner, g.ReduceBytes, TagReduce); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// program renders MG as a rank program: red-black halo exchanges at each
// V-cycle level (pairs with an even block index exchange first, then the
// odd ones), which keeps the rendezvous chain deadlock-free.
func (m *MG) program(iters int) mpi.Program {
	return func(c *mpiComm) error {
		n := c.Size()
		me := c.Rank()
		for it := 0; it < iters; it++ {
			if err := c.Compute(m.ComputeTime(n)); err != nil {
				return err
			}
			for _, level := range m.cycle(n) {
				stride := 1 << uint(level)
				bytes := m.FineBytes >> uint(level)
				if bytes < 1024 {
					bytes = 1024
				}
				for phase := 0; phase < 2; phase++ {
					// In this phase, pairs (i, i+stride) with block parity
					// (i/stride)%2 == phase exchange.
					switch {
					case (me/stride)%2 == phase && me+stride < n:
						if err := c.SendRecv(me+stride, bytes, TagFaceExchange); err != nil {
							return err
						}
					case me >= stride && ((me-stride)/stride)%2 == phase:
						if err := c.SendRecv(me-stride, bytes, TagFaceExchange); err != nil {
							return err
						}
					}
				}
			}
		}
		return nil
	}
}
