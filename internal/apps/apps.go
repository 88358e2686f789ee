// Package apps generates the communication patterns of the paper's five
// evaluation workloads (Section 5.1): the NPB 2.4 pseudo-applications LU,
// BT and SP (CLASS C), parallel K-means clustering, and a DNN trained with
// parallel stochastic gradient descent.
//
// The paper obtains each application's CG/AG matrices by profiling real
// runs with CYPRESS; here each workload is a generator that replays the
// application's communication structure into a sink. The generator is
// written once and has two readers:
//
//   - Graph streams the messages straight into a comm.Graph, keeping no
//     event log, for callers that need only the matrices the mapper
//     reads (the mapping service, the experiments' tables, the examples);
//   - Trace records them in a trace.Recorder (the virtual-MPI
//     substitute), for callers that also read the event stream: loop
//     compression, netsim's message-level replay and geotrace.
//
// Both make the same AddTraffic calls in the same order, so their graphs
// are bit-identical. The generators reproduce the Figure 3
// characteristics the paper calls out:
//
//   - LU, BT, SP: near-diagonal matrices from 2-D process-grid neighbor
//     exchanges ("process 1 only communicates with processes 2 and 8 for
//     LU. There are only two types of message sizes, namely 43KB and
//     83KB").
//   - K-means: a complex, non-local pattern (recursive-doubling allreduce
//     of the centroid set every iteration).
//   - DNN: a small total message volume (workers compute independently and
//     average models over a binomial tree), so the application is
//     computation-bound.
//
// Every generator also models per-iteration local (computation + I/O) time,
// which the end-to-end simulation of Figure 5 combines with communication
// time; the communication-only experiments (Figure 6 onward) ignore it.
package apps

import (
	"fmt"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/trace"
)

// App is one evaluation workload.
type App interface {
	// Name is the label used in the paper's figures.
	Name() string
	// DefaultIters is the iteration count used by the experiments.
	DefaultIters() int
	// ComputeTime returns the local (computation + I/O) seconds one
	// process spends per iteration when run on n processes.
	ComputeTime(n int) float64
	// emit replays iters ≥ 1 iterations of the workload on n ≥ 2
	// processes into s, in send order.
	emit(s sink, n, iters int)
}

// sink receives a generator's messages. MustSend panics on a message
// trace.Recorder.Send would reject; generators are correct by
// construction.
type sink interface {
	MustSend(src, dst int, bytes int64, tag int)
}

// Graph profiles iters iterations of a on n processes straight into its
// CG/AG communication pattern.
func Graph(a App, n, iters int) (*comm.Graph, error) {
	if err := checkRun(a, n, iters); err != nil {
		return nil, err
	}
	g := comm.NewGraph(n)
	a.emit(trace.GraphSink{G: g}, n, iters)
	return g, nil
}

// Trace replays iters iterations of a on n processes and returns the
// recorded message stream.
func Trace(a App, n, iters int) (*trace.Recorder, error) {
	if err := checkRun(a, n, iters); err != nil {
		return nil, err
	}
	r := trace.NewRecorder(n)
	a.emit(r, n, iters)
	return r, nil
}

// checkRun rejects a run every generator would: fewer than 2 processes
// or fewer than 1 iteration.
func checkRun(a App, n, iters int) error {
	if n < 2 {
		return fmt.Errorf("apps: %s needs at least 2 processes, got %d", a.Name(), n)
	}
	if iters < 1 {
		return fmt.Errorf("apps: %s needs at least 1 iteration, got %d", a.Name(), iters)
	}
	return nil
}

// All returns the five paper workloads with their default parameters, in
// the order the paper's figures list them.
func All() []App {
	return []App{NewLU(), NewSP(), NewBT(), NewKMeans(), NewDNN()}
}

// Extended returns the paper workloads plus this reproduction's extras
// (NPB CG and MG).
func Extended() []App {
	return append(All(), NewCG(), NewMG())
}

// ByName returns the workload with the given name (as reported by Name),
// searching the extended catalog.
func ByName(name string) (App, error) {
	for _, a := range Extended() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// gridDims returns the most-square rows×cols factorization of n with
// rows ≤ cols, matching how the NPB kernels arrange their process grids.
func gridDims(n int) (rows, cols int) {
	for r := isqrt(n); r >= 1; r-- {
		if n%r == 0 {
			return r, n / r
		}
	}
	return 1, n
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
