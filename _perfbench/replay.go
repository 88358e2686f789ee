package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/comm"
	"geoprocmap/internal/core"
	"geoprocmap/internal/multilevel"
	"geoprocmap/internal/service"
)

// maxReplay bounds the (template, version) pairs a traced serve run
// replays through the layers.
const maxReplay = 64

// stepper times calls into the layers on one goroutine: a span and a heap
// allocation delta around each.
type stepper struct {
	rec *recorder
	ms  runtime.MemStats
}

func (st *stepper) mallocs() uint64 {
	runtime.ReadMemStats(&st.ms)
	return st.ms.Mallocs
}

// step runs fn as a child span of parent.
func (st *stepper) step(name string, parent, req int, fn func() error) error {
	before := st.mallocs()
	id := st.rec.start(name, parent, req)
	err := fn()
	st.rec.end(id)
	st.rec.setAllocs(id, st.mallocs()-before)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// replayServe replays the check set's distinct (template, version) pairs
// on one goroutine through the layers' public functions in the handler's
// order — decode, RoutingKey, MapRequest.Problem, GroupSites, Mapper.Map,
// CheckPlacement, CostParts, PlacementDigest, encode — and requires each
// digest to equal the one the server answered.
func replayServe(in *serveInput, c *checker, rec *recorder) error {
	st := &stepper{rec: rec}
	graphs := map[string]*comm.Graph{}
	graphFor := func(workload string, procs, iters int) (*comm.Graph, error) {
		key := fmt.Sprintf("%s/%d/%d", workload, procs, iters)
		if g, ok := graphs[key]; ok {
			return g, nil
		}
		var g *comm.Graph
		err := st.step("apps.profile", 0, -1, func() error {
			app, err := apps.ByName(workload)
			if err != nil {
				return err
			}
			g, err = apps.Graph(app, procs, iters)
			return err
		})
		if err != nil {
			return nil, err
		}
		g.Prewarm() // as the server's memo does before sharing a graph
		graphs[key] = g
		return g, nil
	}
	seen := map[[2]uint64]bool{}
	for i := 0; i < in.checkN && len(seen) < maxReplay; i++ {
		t, version := int(in.stream[i]), in.version(i)
		key := [2]uint64{uint64(t), version}
		if seen[key] {
			continue
		}
		seen[key] = true
		m := c.models[version]
		snap := &service.Snapshot{Version: version, LT: m[0], BT: m[1], PC: c.pc, Capacity: c.capacity}
		if err := replayRequest(st, in.bodies[t], t, snap, graphFor, c.digests[key]); err != nil {
			return fmt.Errorf("replaying template %d at v%d: %w", t, version, err)
		}
	}
	return nil
}

func replayRequest(st *stepper, body []byte, t int, snap *service.Snapshot, graphFor service.GraphFunc, want string) error {
	root := st.rec.start("replay.request", 0, t)
	defer st.rec.end(root)
	var (
		req   service.MapRequest
		prob  *core.Problem
		pl    core.Placement
		res   service.MapResult
		steps = []struct {
			name string
			fn   func() error
		}{
			{"service.decode", func() error {
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				return dec.Decode(&req)
			}},
			{"service.routing_key", func() error { _ = service.RoutingKey(&req); return nil }},
			{"service.problem", func() (err error) { prob, err = req.Problem(snap, graphFor); return err }},
			{"core.group", func() error {
				_, err := core.GroupSites(prob.PC, 4, req.Seed)
				return err
			}},
			{"core.map", func() error {
				mapper, err := req.Mapper(1)
				if err != nil {
					return err
				}
				pl, err = mapper.Map(prob)
				return err
			}},
			{"core.check", func() error { return prob.CheckPlacement(pl) }},
			{"core.cost", func() error {
				lat, bw := prob.CostParts(pl)
				res.Cost, res.LatencyCost, res.BandwidthCost = (lat + bw).Float(), lat.Float(), bw.Float()
				return nil
			}},
			{"service.digest", func() error { res.Digest = service.PlacementDigest(pl); return nil }},
			{"service.encode", func() error {
				res.SnapshotVersion, res.Placement = snap.Version, pl
				var buf bytes.Buffer
				return json.NewEncoder(&buf).Encode(service.MapResponse{MapResult: res})
			}},
		}
	)
	for _, s := range steps {
		if err := st.step(s.name, root, t, s.fn); err != nil {
			return err
		}
	}
	if res.Digest != want {
		return fmt.Errorf("replayed digest %.12s, server answered %.12s", res.Digest, want)
	}
	return nil
}

// replayLarge runs the multilevel pipeline once through the layers'
// public functions — AddTraffic, Prewarm, FromComm, Solve — with spans
// around each, then requires the placement to pass CheckPlacement, to
// equal want by PlacementDigest, and to cost the same under CostParts as
// under the CSR kernel.
func replayLarge(in *largeInput, seed int64, want string, rec *recorder) (multilevel.Stats, error) {
	st := &stepper{rec: rec}
	var (
		g     *comm.Graph
		inst  *multilevel.Instance
		pl    []int
		stats multilevel.Stats
	)
	prob := in.problem(nil)
	groups, err := core.GroupSites(prob.PC, 4, seed)
	if err != nil {
		return stats, err
	}
	root := rec.start("replay.multilevel", 0, 0)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"comm.build", func() error { g = in.graph(); return nil }},
		{"comm.prewarm", func() error { g.Prewarm(); return nil }},
		{"multilevel.csr", func() error {
			inst = &multilevel.Instance{
				G: multilevel.FromComm(g), LT: prob.LT, BT: prob.BT,
				Capacity: prob.Capacity, Pin: prob.Constraint, Groups: groups,
			}
			return nil
		}},
		{"multilevel.solve", func() (err error) {
			pl, stats, err = multilevel.Solve(inst, multilevel.Options{})
			return err
		}},
	}
	for _, s := range steps {
		if err := st.step(s.name, root, 0, s.fn); err != nil {
			rec.end(root)
			return stats, err
		}
	}
	rec.end(root)
	prob.Comm = g
	if err := prob.CheckPlacement(pl); err != nil {
		return stats, err
	}
	if d := service.PlacementDigest(pl); d != want {
		return stats, fmt.Errorf("FromComm+Solve digest %.12s, Map gave %.12s", d, want)
	}
	// The CSR kernel sums in another order, so the two costs agree to
	// rounding, not bit for bit.
	lat, bw := prob.CostParts(pl)
	if cost, csr := (lat + bw).Float(), inst.Cost(pl).Float(); math.Abs(cost-csr) > 1e-9*cost {
		return stats, fmt.Errorf("CostParts %v, multilevel cost %v", cost, csr)
	}
	return stats, nil
}
