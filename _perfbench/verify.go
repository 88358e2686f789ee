package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/comm"
	"geoprocmap/internal/core"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/service"
)

// checker verifies service answers against problems the benchmark builds
// itself: its own profiled graphs, its own copy of every published model.
type checker struct {
	pc       []geo.LatLon
	capacity mat.IntVec
	models   map[uint64][2]*mat.Matrix // version -> LT, BT
	graphs   map[string]*comm.Graph
	// digests remembers the verified digest of each (template, version):
	// every later answer to the same pair must repeat it.
	digests map[[2]uint64]string
}

func newChecker(in *serveInput) (*checker, error) {
	cloud, err := servedCloud()
	if err != nil {
		return nil, err
	}
	c := &checker{
		pc:       cloud.Coordinates(),
		capacity: cloud.Capacity(),
		models:   map[uint64][2]*mat.Matrix{1: {cloud.LT.Clone(), cloud.BT.Clone()}},
		graphs:   map[string]*comm.Graph{},
		digests:  map[[2]uint64]string{},
	}
	for e, d := range in.drifts {
		lt, err := mat.From(d.LT)
		if err != nil {
			return nil, err
		}
		bt, err := mat.From(d.BT)
		if err != nil {
			return nil, err
		}
		c.models[in.version(e*in.epoch)] = [2]*mat.Matrix{lt, bt}
	}
	return c, nil
}

// problem rebuilds the request's problem against the given version.
func (c *checker) problem(r *service.MapRequest, version uint64) (*core.Problem, error) {
	m, ok := c.models[version]
	if !ok {
		return nil, fmt.Errorf("no model for snapshot version %d", version)
	}
	var g *comm.Graph
	if r.Workload != "" {
		key := fmt.Sprintf("%s/%d", r.Workload, r.Procs)
		if g = c.graphs[key]; g == nil {
			app, err := apps.ByName(r.Workload)
			if err != nil {
				return nil, err
			}
			if g, err = apps.Graph(app, r.Procs, 1); err != nil {
				return nil, err
			}
			c.graphs[key] = g
		}
	} else {
		g = comm.NewGraph(r.Procs)
		for _, e := range r.Edges {
			g.AddTraffic(e.Src, e.Dst, e.Volume, e.Msgs)
		}
	}
	pin := mat.NewIntVec(r.Procs, core.Unconstrained)
	copy(pin, r.Constraint)
	return &core.Problem{Comm: g, LT: m[0], BT: m[1], PC: c.pc, Capacity: c.capacity, Constraint: pin}, nil
}

// check verifies one answer to template t at the given version: the
// placement passes CheckPlacement, every reported cost equals CostParts,
// the digest equals PlacementDigest, and it repeats any earlier answer
// to the same (template, version).
func (c *checker) check(r *service.MapRequest, t int, version uint64, res *service.MapResult) error {
	if res.SnapshotVersion != version {
		return fmt.Errorf("answered against snapshot v%d, want v%d", res.SnapshotVersion, version)
	}
	if d := service.PlacementDigest(res.Placement); d != res.Digest {
		return fmt.Errorf("digest %.12s, PlacementDigest gives %.12s", res.Digest, d)
	}
	key := [2]uint64{uint64(t), version}
	if want, ok := c.digests[key]; ok {
		if res.Digest != want {
			return fmt.Errorf("digest %.12s differs from an earlier answer %.12s", res.Digest, want)
		}
		return nil
	}
	p, err := c.problem(r, version)
	if err != nil {
		return err
	}
	if err := p.CheckPlacement(res.Placement); err != nil {
		return err
	}
	lat, bw := p.CostParts(res.Placement)
	if res.LatencyCost != lat.Float() || res.BandwidthCost != bw.Float() || res.Cost != (lat+bw).Float() {
		return fmt.Errorf("cost %v (%v + %v), CostParts gives %v + %v", res.Cost, res.LatencyCost, res.BandwidthCost, lat, bw)
	}
	c.digests[key] = res.Digest
	return nil
}

// verdict is a phase's verification outcome.
type verdict struct {
	attempted, failed int
	mismatches        []string
	cached            int
	waitMs            []float64            // non-cached answers: latency minus solve_ms
	costs             map[string][]float64 // check set, by preset ("" = explicit edges)
	digest            string               // check set folded in request order
}

func (v *verdict) mismatch(format string, args ...any) {
	v.mismatches = append(v.mismatches, fmt.Sprintf(format, args...))
}

// verify checks every answer of a phase. Requests that failed (non-200,
// transport error) count as failed; answers that are wrong are
// mismatches.
func verify(c *checker, in *serveInput, p *phase) *verdict {
	v := &verdict{costs: map[string][]float64{}}
	fold := sha256.New()
	n := max(p.done, in.checkN)
	for i := 0; i < n; i++ {
		s := &p.samples[i]
		timed := i < p.done
		if timed {
			v.attempted++
		}
		if !s.ok() {
			// A timed request that failed is counted, not a wrong answer;
			// the check set must be complete, so an untimed one is.
			if timed {
				v.failed++
			} else {
				v.mismatch("check-set request %d failed: HTTP %d, %v", i, s.status, s.err)
			}
			continue
		}
		var res service.MapResponse
		if err := json.Unmarshal(s.body, &res); err != nil {
			v.mismatch("request %d: decoding answer: %v", i, err)
			continue
		}
		t := int(in.stream[i])
		if err := c.check(&in.reqs[t], t, in.version(i), &res.MapResult); err != nil {
			v.mismatch("request %d (template %d): %v", i, t, err)
			continue
		}
		if i < in.checkN {
			fmt.Fprintf(fold, "%d:%s\n", i, res.Digest)
			v.costs[in.reqs[t].Workload] = append(v.costs[in.reqs[t].Workload], res.Cost)
		}
		if !timed {
			continue
		}
		if res.Cached {
			v.cached++
		} else {
			v.waitMs = append(v.waitMs, ms(s.latency(in.open))-res.SolveMillis)
		}
	}
	v.digest = hex.EncodeToString(fold.Sum(nil))
	return v
}

// costGmean is the geometric mean over presets of each preset's geometric
// mean cost, so that the preset mix a seed happens to draw does not move
// it.
func costGmean(costs map[string][]float64) float64 {
	keys := make([]string, 0, len(costs))
	for k := range costs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	per := make([]float64, len(keys))
	for i, k := range keys {
		per[i] = gmean(costs[k])
	}
	return gmean(per)
}

// gmean is the geometric mean of positive values.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
