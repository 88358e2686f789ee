package apps

// MG is the NPB Multigrid kernel, a second extension workload. Its
// signature is *hierarchical* neighbor exchange: every V-cycle touches a
// pyramid of grids, and at each level ℓ a process exchanges halo faces
// with neighbors at rank stride 2^ℓ — so unlike LU's single-stride
// diagonal, MG's matrix carries bands at several powers-of-two offsets,
// with message sizes shrinking as the grid coarsens.
type MG struct {
	// FineBytes is the halo size on the finest level; level ℓ moves
	// FineBytes / 2^ℓ (coarser grids have smaller faces).
	FineBytes int64
	// Levels caps the V-cycle depth (further limited by the grid size).
	Levels int
	iters  int
}

// NewMG returns the workload with CLASS C-flavored defaults: 128 KB fine
// halos over 4 levels.
func NewMG() App { return &MG{FineBytes: 128 << 10, Levels: 4, iters: 20} }

// Name implements App.
func (m *MG) Name() string { return "MG" }

// DefaultIters implements App.
func (m *MG) DefaultIters() int { return m.iters }

// ComputeTime implements App: smoothing work strong-scales.
func (m *MG) ComputeTime(n int) float64 {
	if n <= 0 {
		return 0
	}
	return 10.0 / float64(n)
}

// emit implements App.
func (m *MG) emit(out sink, n, iters int) {
	for it := 0; it < iters; it++ {
		// Down-sweep then up-sweep of the V-cycle: levels 0..L-1 then back.
		for _, level := range m.cycle(n) {
			stride := 1 << uint(level)
			bytes := m.FineBytes >> uint(level)
			if bytes < 1024 {
				bytes = 1024
			}
			for i := 0; i < n; i++ {
				if i+stride < n {
					out.MustSend(i, i+stride, bytes, TagFaceExchange)
					out.MustSend(i+stride, i, bytes, TagFaceExchange)
				}
			}
		}
	}
}

// cycle returns the level sequence of one V-cycle for n processes:
// 0, 1, …, L-1, L-2, …, 0 with L bounded by both Levels and log2(n).
func (m *MG) cycle(n int) []int {
	levels := m.Levels
	if levels < 1 {
		levels = 1
	}
	maxLevels := 0
	for s := 1; s < n; s *= 2 {
		maxLevels++
	}
	if levels > maxLevels {
		levels = maxLevels
	}
	var out []int
	for l := 0; l < levels; l++ {
		out = append(out, l)
	}
	for l := levels - 2; l >= 0; l-- {
		out = append(out, l)
	}
	return out
}
