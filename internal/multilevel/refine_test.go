package multilevel

import (
	"fmt"
	"math"
	"testing"

	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// deltaCoverage counts what checkDeltasMatchRecomputation exercised, so
// the table test can assert it reached the edge cases.
type deltaCoverage struct {
	adjacentSwaps int // swaps of two vertices joined by an edge
	selfMoves     int // moves of a vertex with absorbed self traffic
}

// checkDeltasMatchRecomputation places in's level 0 and one coarsened
// level (super-vertices of up to three processes, so matched neighbours
// carry self traffic) at random sites, and checks every move and every
// swap of two vertices on different sites: moveDelta and swapDelta must
// equal cost(after) − cost(before) within 1e-9 of the objective.
func checkDeltasMatchRecomputation(t *testing.T, in *Instance, seed int64) deltaCoverage {
	t.Helper()
	var cov deltaCoverage
	l0 := &level{g: in.G, pin: in.Pin, allowed: normalizeAllowed(in.Allowed, in.G.n)}
	mt := &matcher{in: in, ref: in.refWeights(), maxW: 3}
	match, _ := mt.match(l0)
	rng := stats.NewRand(seed)
	m := in.M()
	for _, lv := range []*level{l0, contract(l0, match)} {
		g := lv.g
		pl := make([]int, g.n)
		for v := range pl {
			pl[v] = rng.Intn(m)
		}
		before := in.cost(g, pl)
		tol := 1e-9 * math.Max(1, math.Abs(before.Float()))
		check := func(what string, got units.Cost, after []int) {
			t.Helper()
			want := in.cost(g, after) - before
			if math.Abs((got - want).Float()) > tol {
				t.Fatalf("level with %d vertices: %s = %v, recomputation %v", g.n, what, got, want)
			}
		}
		after := make([]int, g.n)
		for v := 0; v < g.n; v++ {
			for s := 0; s < m; s++ {
				copy(after, pl)
				after[v] = s
				check(fmt.Sprintf("moveDelta(%d→%d)", v, s), in.moveDelta(g, pl, v, s), after)
				if g.selfVol[v] != 0 || g.selfMsgs[v] != 0 {
					cov.selfMoves++
				}
			}
			for u := v + 1; u < g.n; u++ {
				if pl[u] == pl[v] {
					continue
				}
				copy(after, pl)
				after[v], after[u] = pl[u], pl[v]
				check(fmt.Sprintf("swapDelta(%d,%d)", v, u), in.swapDelta(g, pl, v, u), after)
				if adjacent(g, v, u) {
					cov.adjacentSwaps++
				}
			}
		}
	}
	return cov
}

// adjacent reports whether an edge joins v and u in either direction.
func adjacent(g *Graph, v, u int) bool {
	for _, e := range g.out(v) {
		if e.Peer == u {
			return true
		}
	}
	for _, e := range g.in(v) {
		if e.Peer == u {
			return true
		}
	}
	return false
}

// TestDeltasMatchRecomputation checks the incremental move and swap
// deltas against full recomputation on random small instances with
// asymmetric site matrices, in every fillCase zero mode, at level 0 and on
// a coarsened level with self traffic.
func TestDeltasMatchRecomputation(t *testing.T) {
	var cov deltaCoverage
	for seed := int64(1); seed <= 30; seed++ {
		n, m, zero := 2+int(seed*7%30), 2+int(seed%5), int(seed%3)
		t.Run(fmt.Sprintf("seed=%d/n=%d/m=%d/zero=%d", seed, n, m, zero), func(t *testing.T) {
			c := checkDeltasMatchRecomputation(t, fillCase(seed, n, m, zero, false), seed)
			cov.adjacentSwaps += c.adjacentSwaps
			cov.selfMoves += c.selfMoves
		})
	}
	if cov.adjacentSwaps == 0 || cov.selfMoves == 0 {
		t.Errorf("coverage %+v: want adjacent swaps and moves of vertices with self traffic", cov)
	}
}

// FuzzDeltasMatchRecomputation is TestDeltasMatchRecomputation over
// fuzzed instance seeds and shapes (make fuzz runs it).
func FuzzDeltasMatchRecomputation(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(0))
	f.Add(int64(2), uint8(20), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, m, zero uint8) {
		checkDeltasMatchRecomputation(t, fillCase(seed, 1+int(n%32), 1+int(m%6), int(zero%3), false), seed)
	})
}
