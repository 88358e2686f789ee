// Package comm represents application communication patterns.
//
// The paper describes an application by two N×N matrices: CG, the volume of
// communication between every pair of processes, and AG, the number of
// messages exchanged (Table 4). The evaluation scales to 8192 processes
// where the patterns are sparse (NPB kernels talk to a handful of
// neighbors), so this package stores both matrices together as a directed
// weighted graph, and converts to dense matrices on demand for small
// problems and for rendering Figure 3.
//
// A Graph has two phases. While it is built, AddTraffic appends each call
// to its source's entry list. The first read freezes it, exactly once and
// safely under concurrent readers, into a CSR adjacency: peer-sorted out
// and in rows over flat Edge arrays, with repeated (src, dst) pairs summed
// in call order. The frozen graph is immutable, so the core mapper, the
// baselines and the multilevel solver all share one adjacency without
// copies, caches or locks.
package comm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"geoprocmap/internal/mat"
)

// Edge is directed traffic from one process to a peer.
type Edge struct {
	Peer   int     // destination (or source, for incoming edges) process
	Volume float64 // total bytes transferred (CG entry)
	Msgs   float64 // total number of messages (AG entry)
}

// CSR is a frozen directed adjacency in compressed sparse row form:
// Out[OutIdx[i]:OutIdx[i+1]] are the edges i sends on, ascending by
// destination, and In[InIdx[i]:InIdx[i+1]] the edges i receives on,
// ascending by sender (Edge.Peer is the sender there). Both arrays hold
// the same traffic. A CSR obtained from a Graph is shared and read-only.
type CSR struct {
	OutIdx []int
	Out    []Edge
	InIdx  []int
	In     []Edge
}

// Graph holds the combined CG/AG communication pattern of an N-process
// application. Traffic is directed; AddTraffic(i, j, …) and
// AddTraffic(j, i, …) accumulate separately, matching the paper's
// asymmetric matrices.
type Graph struct {
	n int

	// pending[i] lists i's AddTraffic calls in call order, repeats
	// included; the freeze sums them and drops the lists.
	pending [][]Edge

	once sync.Once
	csr  CSR // valid once frozen; OutIdx != nil marks the freeze

	totalVolume float64
	totalMsgs   float64
}

// NewGraph returns an empty pattern over n processes.
// It panics if n is negative.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("comm: negative process count %d", n)) //geolint:ignore libpanic negative count is a programmer error, like make() with negative len
	}
	return &Graph{n: n, pending: make([][]Edge, n)}
}

// FromCSR returns the frozen graph over len(outIdx)-1 processes whose
// outgoing adjacency is (outIdx, out), building the incoming rows by
// transposition. Every row must be strictly ascending by peer and free of
// self-traffic; the graph takes ownership of both slices.
func FromCSR(outIdx []int, out []Edge) *Graph {
	g := &Graph{n: len(outIdx) - 1}
	for _, e := range out {
		g.totalVolume += e.Volume
		g.totalMsgs += e.Msgs
	}
	g.once.Do(func() { g.csr = transpose(outIdx, out) })
	return g
}

// N returns the number of processes.
func (g *Graph) N() int { return g.n }

// AddTraffic accumulates volume bytes over msgs messages sent from src to
// dst. Self-traffic (src == dst) is ignored, as in the paper's model where
// the diagonal carries no cost. Negative or NaN volume or msgs panic, and
// so does a call after the graph was frozen by its first read.
func (g *Graph) AddTraffic(src, dst int, volume, msgs float64) {
	g.checkProc(src)
	g.checkProc(dst)
	if !(volume >= 0) || !(msgs >= 0) {
		panic(fmt.Sprintf("comm: negative or NaN traffic (%g bytes, %g msgs)", volume, msgs)) //geolint:ignore libpanic trace.Recorder validates sizes; negative traffic is a profiler bug
	}
	if g.csr.OutIdx != nil {
		panic("comm: AddTraffic on a frozen graph") //geolint:ignore libpanic writing after the first read is a programmer error; readers may share the frozen rows
	}
	if src == dst || (volume == 0 && msgs == 0) {
		return
	}
	g.pending[src] = append(g.pending[src], Edge{Peer: dst, Volume: volume, Msgs: msgs})
	g.totalVolume += volume
	g.totalMsgs += msgs
}

func (g *Graph) checkProc(i int) {
	if i < 0 || i >= g.n {
		//geolint:allocsite panic path: the message formats only on an out-of-range programmer error
		panic(fmt.Sprintf("comm: process %d out of range [0,%d)", i, g.n)) //geolint:ignore libpanic process bounds mirror slice indexing on the profiling hot path
	}
}

// Prewarm freezes the graph now rather than at its first read. Reads
// freeze it anyway, exactly once and safely under concurrent readers.
func (g *Graph) Prewarm() { g.CSR() }

// CSR freezes the graph if needed and returns its adjacency, for callers
// that walk the rows in a hot loop without per-row calls.
func (g *Graph) CSR() *CSR {
	g.once.Do(g.freeze)
	return &g.csr
}

// freeze sums each source's pending entries per destination in call order
// (matching the running sum the calls describe), sorts the row by peer,
// and builds the incoming rows by transposition.
//
//geolint:allocsite cold path: runs once per graph, before any hot-loop read
func (g *Graph) freeze() {
	at := make([]int, g.n) // position of a peer's edge in out
	for i := range at {
		at[i] = -1
	}
	outIdx := make([]int, g.n+1)
	var out []Edge
	for i, row := range g.pending {
		start := len(out)
		for _, e := range row {
			k := at[e.Peer]
			if k < start { // no edge to this peer in row i yet
				k = len(out)
				at[e.Peer] = k
				out = append(out, Edge{Peer: e.Peer})
			}
			out[k].Volume += e.Volume
			out[k].Msgs += e.Msgs
		}
		slices.SortFunc(out[start:], func(a, b Edge) int { return cmp.Compare(a.Peer, b.Peer) })
		outIdx[i+1] = len(out)
	}
	g.pending = nil
	g.csr = transpose(outIdx, out)
}

// transpose completes an out-CSR with its incoming rows. Walking sources
// in ascending order leaves every in row sorted by sender.
func transpose(outIdx []int, out []Edge) CSR {
	n := len(outIdx) - 1
	inIdx := make([]int, n+1)
	for _, e := range out {
		inIdx[e.Peer+1]++
	}
	for i := 0; i < n; i++ {
		inIdx[i+1] += inIdx[i]
	}
	in := make([]Edge, len(out))
	cursor := append([]int(nil), inIdx[:n]...)
	for i := 0; i < n; i++ {
		for _, e := range out[outIdx[i]:outIdx[i+1]] {
			in[cursor[e.Peer]] = Edge{Peer: i, Volume: e.Volume, Msgs: e.Msgs}
			cursor[e.Peer]++
		}
	}
	return CSR{OutIdx: outIdx, Out: out, InIdx: inIdx, In: in}
}

// Volume returns CG(i, j): the bytes sent from i to j.
func (g *Graph) Volume(i, j int) float64 { return g.edge(i, j).Volume }

// Msgs returns AG(i, j): the number of messages sent from i to j.
func (g *Graph) Msgs(i, j int) float64 { return g.edge(i, j).Msgs }

// edge returns the i→j edge, or a zero Edge when i sends nothing to j.
func (g *Graph) edge(i, j int) Edge {
	g.checkProc(j)
	row := g.Outgoing(i)
	if k, ok := slices.BinarySearchFunc(row, j, func(e Edge, j int) int { return cmp.Compare(e.Peer, j) }); ok {
		return row[k]
	}
	return Edge{}
}

// Outgoing returns the outgoing edges of process i sorted by peer. The
// slice is a row of the frozen graph: callers must not modify it.
//
//geolint:allocfree
func (g *Graph) Outgoing(i int) []Edge {
	g.checkProc(i)
	c := g.CSR()
	lo, hi := c.OutIdx[i], c.OutIdx[i+1]
	return c.Out[lo:hi:hi]
}

// Incoming returns the incoming edges of process i sorted by peer. Each
// edge's Peer field is the *sender*. The slice is a row of the frozen
// graph: callers must not modify it.
//
//geolint:allocfree
func (g *Graph) Incoming(i int) []Edge {
	g.checkProc(i)
	c := g.CSR()
	lo, hi := c.InIdx[i], c.InIdx[i+1]
	return c.In[lo:hi:hi]
}

// Neighbors calls fn for every process j that exchanges traffic with i in
// either direction, with the combined volume CG(i,j)+CG(j,i) and message
// count AG(i,j)+AG(j,i), in ascending peer order (deterministic). The
// heuristics accumulate floating-point affinities over neighbors, so the
// order is part of the placement's bit-exact reproducibility.
//
//geolint:allocfree
func (g *Graph) Neighbors(i int, fn func(j int, volume, msgs float64)) {
	g.checkProc(i)
	g.CSR().Neighbors(i, fn)
}

// Neighbors merges vertex i's out and in rows: fn sees every peer that
// exchanges traffic with i in either direction once, in ascending peer
// order, with a peer's out and in entries summed as out+in.
//
//geolint:allocfree
func (c *CSR) Neighbors(i int, fn func(j int, volume, msgs float64)) {
	in := c.In[c.InIdx[i]:c.InIdx[i+1]]
	k := 0
	for _, e := range c.Out[c.OutIdx[i]:c.OutIdx[i+1]] {
		for ; k < len(in) && in[k].Peer < e.Peer; k++ {
			fn(in[k].Peer, in[k].Volume, in[k].Msgs)
		}
		if k < len(in) && in[k].Peer == e.Peer { // out+in, as CG(i,j)+CG(j,i)
			e.Volume += in[k].Volume
			e.Msgs += in[k].Msgs
			k++
		}
		fn(e.Peer, e.Volume, e.Msgs)
	}
	for _, e := range in[k:] {
		fn(e.Peer, e.Volume, e.Msgs)
	}
}

// Quantity returns the total communication quantity of process i — the sum
// of bytes it sends and receives. Algorithm 1 selects the "process with the
// heaviest communication quantity" by this measure.
//
//geolint:allocfree
func (g *Graph) Quantity(i int) float64 {
	var q float64
	g.Neighbors(i, func(_ int, vol, _ float64) { q += vol }) // deterministic accumulation order
	return q
}

// TotalVolume returns the sum of CG.
func (g *Graph) TotalVolume() float64 { return g.totalVolume }

// TotalMsgs returns the sum of AG.
func (g *Graph) TotalMsgs() float64 { return g.totalMsgs }

// EdgeCount returns the number of directed (i, j) pairs with traffic.
func (g *Graph) EdgeCount() int { return len(g.CSR().Out) }

// MaxDegree returns the largest number of distinct peers (union of in and
// out) over all processes.
func (g *Graph) MaxDegree() int {
	max := 0
	for i := 0; i < g.n; i++ {
		d := 0
		g.Neighbors(i, func(int, float64, float64) { d++ })
		if d > max {
			max = d
		}
	}
	return max
}

// DenseCG materializes the N×N communication-volume matrix.
func (g *Graph) DenseCG() *mat.Matrix {
	return g.dense(func(e Edge) float64 { return e.Volume })
}

// DenseAG materializes the N×N message-count matrix.
func (g *Graph) DenseAG() *mat.Matrix {
	return g.dense(func(e Edge) float64 { return e.Msgs })
}

func (g *Graph) dense(field func(Edge) float64) *mat.Matrix {
	m := mat.NewSquare(g.n)
	for i := 0; i < g.n; i++ {
		for _, e := range g.Outgoing(i) {
			m.Set(i, e.Peer, field(e))
		}
	}
	return m
}

// FromDense builds a Graph from dense CG and AG matrices, which must be
// square and of equal size.
func FromDense(cg, ag *mat.Matrix) (*Graph, error) {
	if !cg.IsSquare() || !ag.IsSquare() || cg.Rows() != ag.Rows() {
		return nil, fmt.Errorf("comm: CG (%d×%d) and AG (%d×%d) must be square and equal-sized",
			cg.Rows(), cg.Cols(), ag.Rows(), ag.Cols())
	}
	g := NewGraph(cg.Rows())
	for i := 0; i < cg.Rows(); i++ {
		for j := 0; j < cg.Cols(); j++ {
			if i == j {
				continue
			}
			v, m := cg.At(i, j), ag.At(i, j)
			if v < 0 || m < 0 {
				return nil, fmt.Errorf("comm: negative traffic at (%d,%d)", i, j)
			}
			if v > 0 || m > 0 {
				g.AddTraffic(i, j, v, m)
			}
		}
	}
	return g, nil
}
