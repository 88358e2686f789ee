package apps

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/trace"
)

// TestGraphMatchesRecordedEvents pins the streamed profile to the
// recorded one: for every preset, Graph's rows, message counts and
// totals equal, bit for bit, a left fold of Trace's events in record
// order, which is how the parent freeze summed them. The 40-iteration
// runs repeat every pair often enough that the graph's call log folds
// many times before it freezes. The largest recordings hold 2.3M events,
// so the collector runs at a fifth of its default heap growth.
func TestGraphMatchesRecordedEvents(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	for _, a := range Extended() {
		for _, n := range []int{2, 3, 17, 256, 1000, 4096} {
			for _, iters := range []int{1, 3, 40} {
				name := fmt.Sprintf("%s/%d/%d", a.Name(), n, iters)
				g, err := Graph(a, n, iters)
				if err != nil {
					t.Fatal(err)
				}
				r, err := Trace(a, n, iters)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameAsEventFold(g, r.Events(), n); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// sameAsEventFold reports how g differs from the left fold of events:
// each (src, dst) pair summed in event order from zero, and both totals
// summed over all events in order.
func sameAsEventFold(g *comm.Graph, events []trace.Event, n int) error {
	type pairSum struct {
		src, dst     int
		volume, msgs float64
	}
	var sums []pairSum
	at := map[int]int{} // src·n + dst → index in sums
	var volume, msgs float64
	for _, e := range events {
		k, ok := at[e.Src*n+e.Dst]
		if !ok {
			k = len(sums)
			at[e.Src*n+e.Dst] = k
			sums = append(sums, pairSum{src: e.Src, dst: e.Dst})
		}
		sums[k].volume += float64(e.Bytes)
		sums[k].msgs++
		volume += float64(e.Bytes)
		msgs++
	}
	if math.Float64bits(g.TotalVolume()) != math.Float64bits(volume) || math.Float64bits(g.TotalMsgs()) != math.Float64bits(msgs) {
		return fmt.Errorf("totals %v/%v, event fold %v/%v", g.TotalVolume(), g.TotalMsgs(), volume, msgs)
	}
	same := func(e comm.Edge, peer int, s pairSum) bool {
		return e.Peer == peer && math.Float64bits(e.Volume) == math.Float64bits(s.volume) &&
			math.Float64bits(e.Msgs) == math.Float64bits(s.msgs)
	}
	c := g.CSR()
	if len(c.Out) != len(sums) || len(c.In) != len(sums) {
		return fmt.Errorf("%d out and %d in edges, event fold has %d pairs", len(c.Out), len(c.In), len(sums))
	}
	sort.Slice(sums, func(i, j int) bool {
		return sums[i].src < sums[j].src || (sums[i].src == sums[j].src && sums[i].dst < sums[j].dst)
	})
	for k, s := range sums {
		if k < c.OutIdx[s.src] || k >= c.OutIdx[s.src+1] || !same(c.Out[k], s.dst, s) {
			return fmt.Errorf("out edge %d→%d differs from the event fold", s.src, s.dst)
		}
	}
	sort.Slice(sums, func(i, j int) bool {
		return sums[i].dst < sums[j].dst || (sums[i].dst == sums[j].dst && sums[i].src < sums[j].src)
	})
	for k, s := range sums {
		if k < c.InIdx[s.dst] || k >= c.InIdx[s.dst+1] || !same(c.In[k], s.src, s) {
			return fmt.Errorf("in edge %d→%d differs from the event fold", s.src, s.dst)
		}
	}
	return nil
}
