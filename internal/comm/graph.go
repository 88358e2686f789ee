// Package comm represents application communication patterns.
//
// The paper describes an application by two N×N matrices: CG, the volume of
// communication between every pair of processes, and AG, the number of
// messages exchanged (Table 4). The evaluation scales to 8192 processes
// where the patterns are sparse (NPB kernels talk to a handful of
// neighbors), so this package stores both matrices together as a directed
// weighted graph.
//
// A Graph has two phases. While it is built, AddTraffic appends each call
// to one flat call log, which folds in place to one entry per (src, dst)
// pair whenever it outgrows the pairs it holds, so a profile of millions
// of messages keeps memory in proportion to its pairs. The first read
// freezes the graph, exactly once and safely under concurrent readers,
// into a CSR adjacency: peer-sorted out and in rows over flat Edge arrays,
// with repeated (src, dst) pairs summed in call order. The fold and the
// freeze order the log by the same two stable counting passes (by
// destination, then by source), so each is linear in calls plus
// processes. The frozen graph is immutable, so the core mapper, the
// baselines and the multilevel solver all share one adjacency without
// copies, caches or locks.
//
// The call log is scratch: a graph takes one from the package's pool at
// its first AddTraffic, and the freeze hands it back, so profiling a
// graph allocates only the CSR it keeps. The freeze takes the CSR's rows
// from a second pool, and a caller that owns a graph outright and is done
// with it hands them back with Release. NewGraph and AddTraffic are the
// only way to build a Graph; NewCSR builds an adjacency alone, for
// callers that hold peer-sorted out rows already.
package comm

import (
	"fmt"
	"sync"
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

	// log holds the AddTraffic calls not yet frozen, from the first call
	// on; the freeze sums them and returns it to logPool.
	log    *callLog
	foldAt int // the log folds when it holds this many calls

	once sync.Once
	csr  *CSR // set by the freeze, from rowPool; nil again after Release

	totalVolume float64
	totalMsgs   float64
}

// NewGraph returns an empty pattern over n processes.
// It panics if n is negative.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("comm: negative process count %d", n)) //geolint:ignore libpanic negative count is a programmer error, like make() with negative len
	}
	return &Graph{n: n, foldAt: foldSlack * n}
}

// call is one logged AddTraffic call, or the fold of a run of them.
type call struct {
	src, dst     int
	volume, msgs float64
}

// foldSlack is the call-log room, in calls per process, beyond twice the
// pairs the last fold left. A fold costs O(foldAt + n) and takes place at
// least pairs + foldSlack·n calls after the last one, so the log costs
// amortized O(1) per call and holds at most 2·pairs + foldSlack·n calls.
// At 16, no preset profiled at 256 processes over one iteration folds.
const foldSlack = 16

// callLog is a graph's AddTraffic calls in call order, repeats included,
// until the log reaches the graph's foldAt calls. It then folds: the
// calls become one entry per (src, dst) pair, in (src, dst) order, each
// the running sum of its pair's calls in call order, starting from zero
// as the freeze does. The freeze's stable sort keeps a folded entry ahead
// of the later calls on its pair, so it adds those to the folded partial
// in call order: the additions, and so every sum's bits, are the ones it
// would make over the unfolded log. (No folded partial is −0, since a
// running sum from +0 of non-negative terms never is, so the freeze's
// 0 + partial is the partial itself.) The freeze then hands the log back
// to logPool.
type callLog struct {
	calls []call
	// spare, count, byDst and order are the fold's scratch, kept
	// between folds: the folded log is written to spare, which then
	// swaps with calls.
	spare               []call
	count, byDst, order []int
}

// logPool recycles call logs with their scratch. A graph takes one at
// its first AddTraffic and its freeze returns it: every buffer is
// resliced to length zero, and a log is read only up to what its graph
// wrote, so nothing of one graph's calls reaches another. A log whose
// buffers exceed maxPooledLog bytes is left to the collector rather
// than held.
var logPool = sync.Pool{New: func() any { return new(callLog) }}

// maxPooledLog caps a pooled log's buffers: 1 MB, a log of ~20,000
// calls with its scratch.
const maxPooledLog = 1 << 20

// release returns l to logPool unless its buffers exceed maxPooledLog.
func (l *callLog) release() {
	const callBytes, intBytes = 32, 8
	if (cap(l.calls)+cap(l.spare))*callBytes+(cap(l.count)+cap(l.byDst)+cap(l.order))*intBytes > maxPooledLog {
		return
	}
	l.calls, l.spare = l.calls[:0], l.spare[:0]
	l.count, l.byDst, l.order = l.count[:0], l.byDst[:0], l.order[:0]
	logPool.Put(l)
}

// rowPool recycles the rows of frozen graphs that their owner released.
// A freeze takes one CSR and resizes each of its four arrays, reusing
// the array when it is large enough, and then writes every entry it
// reads: it clears OutIdx and InIdx before counting into them, appends
// each out edge from its first call, and writes each in edge once. So
// nothing of a released graph reaches the next. Rows whose arrays exceed
// maxPooledRows bytes are left to the collector rather than held.
var rowPool = sync.Pool{New: func() any { return new(CSR) }}

// maxPooledRows caps a pooled CSR's arrays: 1 MB, the rows of a graph
// of ~15,000 pairs over 1,000 processes.
const maxPooledRows = 1 << 20

// Release hands the graph's frozen rows to rowPool for a later freeze.
// Only the graph's sole owner may call it, once no reader holds the
// graph, its CSR or a row it returned: a memoized or shared graph must
// never be released. The graph must not be used again: a read of its
// adjacency after Release panics rather than see another graph's rows.
// An unfrozen graph has no rows to hand back, and its call log is left
// to the collector.
func (g *Graph) Release() {
	g.once.Do(func() {}) // an unfrozen graph never freezes now
	c := g.csr
	g.csr = nil
	if c == nil {
		return
	}
	const intBytes, edgeBytes = 8, 32
	if (cap(c.OutIdx)+cap(c.InIdx))*intBytes+(cap(c.Out)+cap(c.In))*edgeBytes > maxPooledRows {
		return
	}
	rowPool.Put(c)
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
	if g.csr != nil {
		panic("comm: AddTraffic on a frozen graph") //geolint:ignore libpanic writing after the first read is a programmer error; readers may share the frozen rows
	}
	if src == dst || (volume == 0 && msgs == 0) {
		return
	}
	if g.log == nil {
		g.log = logPool.Get().(*callLog)
	}
	if len(g.log.calls) >= g.foldAt {
		g.fold()
	}
	g.log.calls = append(g.log.calls, call{src, dst, volume, msgs})
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
	return g.csr
}

// sortByPair orders the call log's indices by (src, dst) with two stable
// counting passes, by dst and then by src, so each pair's calls keep
// their call order. It returns the order, held in the log's scratch, and
// the number of distinct pairs.
func (g *Graph) sortByPair() (order []int, pairs int) {
	l := g.log
	calls := l.calls
	l.count = resize(l.count, g.n+1)
	l.byDst = resize(l.byDst, len(calls))
	l.order = resize(l.order, len(calls))
	count, byDst, order := l.count, l.byDst, l.order
	clear(count)
	for _, c := range calls {
		count[c.dst+1]++
	}
	for i := 1; i < g.n; i++ {
		count[i+1] += count[i]
	}
	for k, c := range calls {
		byDst[count[c.dst]] = k
		count[c.dst]++
	}
	clear(count)
	for _, c := range calls {
		count[c.src+1]++
	}
	for i := 1; i < g.n; i++ {
		count[i+1] += count[i]
	}
	for _, k := range byDst {
		src := calls[k].src
		order[count[src]] = k
		count[src]++
	}
	for r := range order {
		if r == 0 || !samePair(calls[order[r]], calls[order[r-1]]) {
			pairs++
		}
	}
	return order, pairs
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are stale: the caller writes or clears them.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// fold replaces the call log by its pairs, each the running sum of its
// run in call order, and sets the next fold to 2·pairs + foldSlack·n
// calls (see callLog). The folded log goes to the spare buffer, sized to
// hold every call until that fold.
func (g *Graph) fold() {
	order, pairs := g.sortByPair()
	l := g.log
	g.foldAt = 2*pairs + foldSlack*g.n
	folded := l.spare[:0]
	if cap(folded) < g.foldAt {
		folded = make([]call, 0, g.foldAt)
	}
	for r, k := range order {
		c := l.calls[k]
		if r == 0 || !samePair(c, l.calls[order[r-1]]) {
			folded = append(folded, call{src: c.src, dst: c.dst})
		}
		f := &folded[len(folded)-1]
		f.volume += c.volume
		f.msgs += c.msgs
	}
	l.calls, l.spare = folded, l.calls[:0]
}

// freeze sums each (src, dst) run of the call log, in the order
// sortByPair leaves it, into one edge of an out array of one entry per
// pair, builds the incoming rows as NewCSR does, all in rows from
// rowPool, and returns the log with its scratch to logPool.
//
//geolint:allocsite cold path: runs once per graph, before any hot-loop read
func (g *Graph) freeze() {
	if g.log == nil { // no call carried traffic
		g.log = logPool.Get().(*callLog)
	}
	order, pairs := g.sortByPair()
	calls := g.log.calls
	rows := rowPool.Get().(*CSR)
	outIdx := resize(rows.OutIdx, g.n+1)
	clear(outIdx)
	out := resize(rows.Out, pairs)[:0]
	for r, k := range order {
		c := calls[k]
		if r == 0 || !samePair(c, calls[order[r-1]]) {
			out = append(out, Edge{Peer: c.dst})
			outIdx[c.src+1] = len(out)
		}
		e := &out[len(out)-1]
		e.Volume += c.volume
		e.Msgs += c.msgs
	}
	for i := 0; i < g.n; i++ { // rows with no edges end where the last one did
		outIdx[i+1] = max(outIdx[i+1], outIdx[i])
	}
	g.log.release()
	g.log = nil
	rows.OutIdx, rows.Out = outIdx, out
	rows.transpose()
	g.csr = rows
}

// samePair reports whether two calls share their (src, dst) pair.
func samePair(a, b call) bool { return a.src == b.src && a.dst == b.dst }

// NewCSR returns the adjacency over len(outIdx)-1 processes whose
// outgoing rows are (outIdx, out), completed with its incoming rows: what
// a graph's freeze makes of the rows it sums, and what multilevel's
// contraction makes of the rows it aggregates. Every row must be strictly
// ascending by peer and free of self-traffic; the CSR takes ownership of
// both slices.
func NewCSR(outIdx []int, out []Edge) CSR {
	c := CSR{OutIdx: outIdx, Out: out}
	c.transpose()
	return c
}

// transpose builds c's incoming rows from its outgoing ones, in the
// arrays InIdx and In hold when they are large enough: InIdx is cleared
// before it counts, and every entry of In is written once. Walking
// sources in ascending order leaves every in row sorted by sender. Row
// j's entries are written at inIdx[j+1], which counts up from row j's
// start to its end, so the index needs no cursor array of its own.
func (c *CSR) transpose() {
	outIdx, out := c.OutIdx, c.Out
	n := len(outIdx) - 1
	inIdx := resize(c.InIdx, n+1)
	clear(inIdx)
	for _, e := range out {
		if e.Peer+2 <= n {
			inIdx[e.Peer+2]++
		}
	}
	for i := 1; i < n; i++ {
		inIdx[i+1] += inIdx[i]
	}
	in := resize(c.In, len(out))
	for i := 0; i < n; i++ {
		for _, e := range out[outIdx[i]:outIdx[i+1]] {
			in[inIdx[e.Peer+1]] = Edge{Peer: i, Volume: e.Volume, Msgs: e.Msgs}
			inIdx[e.Peer+1]++
		}
	}
	c.InIdx, c.In = inIdx, in
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
