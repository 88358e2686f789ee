package apps

// npb is the shared machinery of the three NPB pseudo-applications. Each
// runs on a 2-D process grid and exchanges fixed-size messages with its
// grid neighbors every iteration; the kernels differ in message sizes,
// whether the sweep is pipelined (LU) or a symmetric face exchange with
// wraparound (BT, SP), and local computation weight.
type npb struct {
	name string
	// eastBytes/southBytes are the two message sizes of the kernel (the
	// paper's 43 KB/83 KB for LU at CLASS C on 64 processes).
	eastBytes  int64
	southBytes int64
	// wraparound adds the periodic-boundary exchanges of the
	// multi-partition BT/SP schemes.
	wraparound bool
	// iters is the default iteration count.
	iters int
	// computeBase is the serial per-iteration computation time in seconds;
	// per-process time is computeBase/n (strong scaling, CLASS C fixed
	// problem size).
	computeBase float64
}

// Tag values label the communication phases in the recorded traces.
const (
	TagForwardSweep = iota
	TagBackwardSweep
	TagFaceExchange
	TagReduce
	TagBroadcast
	TagShuffle
)

// NewLU returns the NPB LU (Lower-Upper Gauss-Seidel) workload. LU's
// wavefront sweeps send 43 KB east and 83 KB south, then the reverse on
// the way back — the strictly two-neighbor diagonal pattern of Figure 3.
func NewLU() App {
	return &npb{
		name:        "LU",
		eastBytes:   43 * 1024,
		southBytes:  83 * 1024,
		wraparound:  false,
		iters:       20,
		computeBase: 18,
	}
}

// NewBT returns the NPB BT (Block Tri-diagonal) workload: symmetric face
// exchanges with periodic boundaries and the largest messages of the three
// kernels.
func NewBT() App {
	return &npb{
		name:        "BT",
		eastBytes:   160 * 1024,
		southBytes:  96 * 1024,
		wraparound:  true,
		iters:       20,
		computeBase: 26,
	}
}

// NewSP returns the NPB SP (Scalar Penta-diagonal) workload: the same
// exchange structure as BT with smaller messages and lighter computation.
func NewSP() App {
	return &npb{
		name:        "SP",
		eastBytes:   120 * 1024,
		southBytes:  72 * 1024,
		wraparound:  true,
		iters:       20,
		computeBase: 20,
	}
}

func (a *npb) Name() string      { return a.name }
func (a *npb) DefaultIters() int { return a.iters }

func (a *npb) ComputeTime(n int) float64 {
	if n <= 0 {
		return 0
	}
	return a.computeBase / float64(n)
}

// emit implements App.
func (a *npb) emit(out sink, n, iters int) {
	rows, cols := gridDims(n)
	rank := func(row, col int) int { return row*cols + col }
	for it := 0; it < iters; it++ {
		if a.wraparound {
			// BT/SP multi-partition: every process exchanges faces with all
			// four neighbors, wrapping at the boundary.
			for row := 0; row < rows; row++ {
				for col := 0; col < cols; col++ {
					src := rank(row, col)
					east := rank(row, (col+1)%cols)
					south := rank((row+1)%rows, col)
					if east != src {
						out.MustSend(src, east, a.eastBytes, TagFaceExchange)
						out.MustSend(east, src, a.eastBytes, TagFaceExchange)
					}
					if south != src {
						out.MustSend(src, south, a.southBytes, TagFaceExchange)
						out.MustSend(south, src, a.southBytes, TagFaceExchange)
					}
				}
			}
			continue
		}
		// LU pipelined wavefront: forward sweep east/south, backward sweep
		// west/north, no wraparound.
		for row := 0; row < rows; row++ {
			for col := 0; col < cols; col++ {
				src := rank(row, col)
				if col+1 < cols {
					out.MustSend(src, rank(row, col+1), a.eastBytes, TagForwardSweep)
				}
				if row+1 < rows {
					out.MustSend(src, rank(row+1, col), a.southBytes, TagForwardSweep)
				}
			}
		}
		for row := rows - 1; row >= 0; row-- {
			for col := cols - 1; col >= 0; col-- {
				src := rank(row, col)
				if col > 0 {
					out.MustSend(src, rank(row, col-1), a.eastBytes, TagBackwardSweep)
				}
				if row > 0 {
					out.MustSend(src, rank(row-1, col), a.southBytes, TagBackwardSweep)
				}
			}
		}
	}
}
