package apps

// CG is the NPB Conjugate Gradient kernel, provided as an extension beyond
// the paper's five workloads. Its communication is distinctive: processes
// form a 2-D grid over the sparse matrix, and every iteration combines
//
//  1. row-wise recursive-halving reductions of partial dot products
//     (log₂ cols messages per process along its grid row), and
//  2. an exchange of the full vector segment with the *transpose* process
//     — a long-range partner that neither near-diagonal heuristics nor
//     butterfly-block packings handle naturally.
//
// CLASS C at 64 processes moves ~75000-row segments (≈75 KB doubles per
// exchange); the reduction messages are small.
type CG struct {
	// SegmentBytes is the vector-segment exchange size at reference scale.
	SegmentBytes int64
	// ReduceBytes is the per-message dot-product reduction size.
	ReduceBytes int64
	iters       int
}

// NewCG returns the workload with CLASS C-flavored defaults.
func NewCG() App { return &CG{SegmentBytes: 75 << 10, ReduceBytes: 8 << 10, iters: 20} }

// Name implements App.
func (c *CG) Name() string { return "CG" }

// DefaultIters implements App.
func (c *CG) DefaultIters() int { return c.iters }

// ComputeTime implements App: SpMV work strong-scales with the process
// count.
func (c *CG) ComputeTime(n int) float64 {
	if n <= 0 {
		return 0
	}
	return 15.0 / float64(n)
}

// emit implements App.
func (c *CG) emit(out sink, n, iters int) {
	rows, cols := gridDims(n)
	rank := func(row, col int) int { return row*cols + col }
	for it := 0; it < iters; it++ {
		// Transpose exchange: the partner of (row, col) is the process
		// holding the transposed block. On non-square grids, mirror the
		// column within the row pairing rows by reflection.
		for row := 0; row < rows; row++ {
			for col := 0; col < cols; col++ {
				src := rank(row, col)
				pr := col % rows
				pc := row
				if pc >= cols {
					pc = pc % cols
				}
				dst := rank(pr, pc)
				if dst != src {
					out.MustSend(src, dst, c.SegmentBytes, TagFaceExchange)
				}
			}
		}
		// Row-wise recursive halving for the two dot products per
		// iteration: partners at XOR distances within the row.
		for row := 0; row < rows; row++ {
			for span := 1; span < cols; span *= 2 {
				for col := 0; col < cols; col++ {
					partner := col ^ span
					if partner < cols {
						out.MustSend(rank(row, col), rank(row, partner), c.ReduceBytes, TagReduce)
					}
				}
			}
		}
	}
}
