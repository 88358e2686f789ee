package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/core"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/service"
	"geoprocmap/internal/stats"
)

// Workload sizes. Everything the program sees is generated from the run's
// seed by the functions in this file; nothing else varies between seeds.
const (
	// nodesPerSite sizes the served cloud: geomapd's defaults except
	// -nodes, which must admit the 512-process serve-hit requests.
	nodesPerSite = 160
	presetProcs  = 256 // serve-miss and serve-churn requests
	hitProcs     = 512 // serve-hit explicit-edge requests
	hitTemplates = 32
	hotPool      = 64 // serve-churn hot requests
	largeSites   = 32
	largeProcs   = 100_000
	pinShare     = 3 // one novel request in pinShare carries 1–3 pins
)

// presets are the service's workload presets, drawn uniformly by novel
// requests.
var presets = []string{"LU", "BT", "SP", "K-means", "DNN", "CG", "MG"}

// patternEdges emits a ring + stride + butterfly pattern over n processes
// with seeded volumes: ≈3 edges per process, the graph shape of the
// top cell of `geobench -exp multilevel`.
func patternEdges(n int, rng *rand.Rand, emit func(src, dst int, volume, msgs float64)) {
	stride := max(n/4, 2)
	for i := 0; i < n; i++ {
		emit(i, (i+1)%n, 2e6*(1+rng.Float64()), 20)
		emit(i, (i+stride)%n, 5e5*(1+rng.Float64()), 8)
		if j := i ^ 1<<uint(i%10); j < n && j != i {
			emit(i, j, 2e5*(1+rng.Float64()), 4)
		}
	}
}

// serveInput is one serve-* workload's generated input: the distinct
// requests (templates), their encoded bodies, and the request stream as
// template indices.
type serveInput struct {
	reqs   []service.MapRequest
	bodies [][]byte
	stream []int32
	// warm lists the templates set-up solves: the caches the timed phase
	// relies on.
	warm []int
	// conns is how many connections the load uses.
	conns int
	// checkN fixes the check set: stream indices [0, checkN) are always
	// completed, verified, folded into the digest and averaged into
	// cost_gmean.
	checkN int
	// Open-loop parameters (serve-churn): the offered rate, the number of
	// scheduled requests per snapshot epoch, and the drifted model
	// published at the start of each epoch.
	open   bool
	rate   float64
	epoch  int
	drifts []model
}

// model is the network part of one snapshot version.
type model struct {
	LT, BT [][]float64
}

// version returns the snapshot version stream index i is served against:
// the store starts at version 1 and each epoch publishes the next.
func (in *serveInput) version(i int) uint64 {
	if in.epoch == 0 {
		return 1
	}
	return 2 + uint64(i/in.epoch)
}

func (in *serveInput) add(r service.MapRequest) int {
	in.reqs = append(in.reqs, r)
	return len(in.reqs) - 1
}

// encode marshals every template once, before any timing starts.
func (in *serveInput) encode() error {
	in.bodies = make([][]byte, len(in.reqs))
	for i := range in.reqs {
		b, err := json.Marshal(&in.reqs[i])
		if err != nil {
			return err
		}
		in.bodies[i] = b
	}
	return nil
}

// hitInput: 32 distinct 512-process explicit-edge requests, all solved in
// set-up, drawn uniformly by a closed loop.
func hitInput(seed int64, streamLen int) (*serveInput, error) {
	rng := stats.NewRand(seed)
	in := &serveInput{checkN: 256}
	for k := 0; k < hitTemplates; k++ {
		r := service.MapRequest{Procs: hitProcs, Algorithm: "geo", Seed: seed*1000 + int64(k)}
		patternEdges(hitProcs, rng, func(src, dst int, vol, msgs float64) {
			r.Edges = append(r.Edges, service.Edge{Src: src, Dst: dst, Volume: vol, Msgs: msgs})
		})
		in.warm = append(in.warm, in.add(r))
	}
	in.stream = make([]int32, streamLen)
	for i := range in.stream {
		in.stream[i] = int32(rng.Intn(hitTemplates))
	}
	return in, in.encode()
}

// novelRequest is a never-repeated preset request: uniform over the
// presets, a unique solver seed, and one in pinShare carrying 1–3 pins.
func novelRequest(rng *rand.Rand, seed int64, sites int) service.MapRequest {
	r := service.MapRequest{
		Workload:  presets[rng.Intn(len(presets))],
		Procs:     presetProcs,
		Algorithm: "geo",
		Seed:      seed,
	}
	if rng.Intn(pinShare) == 0 {
		r.Constraint = make([]int, presetProcs)
		for p := range r.Constraint {
			r.Constraint[p] = core.Unconstrained
		}
		for pins := 1 + rng.Intn(3); pins > 0; pins-- {
			r.Constraint[rng.Intn(presetProcs)] = rng.Intn(sites)
		}
	}
	return r
}

// profileRequests returns one request per preset, so set-up profiles
// (and memoizes) each preset's graph. Their seeds are fixed, so set-up
// does the same work whatever the workload seed, and negative, outside
// every stream.
func profileRequests() []service.MapRequest {
	out := make([]service.MapRequest, len(presets))
	for k, p := range presets {
		out[k] = service.MapRequest{Workload: p, Procs: presetProcs, Algorithm: "geo", Seed: -int64(k) - 1}
	}
	return out
}

// missInput: every stream request is novel; set-up only profiles.
func missInput(seed int64, streamLen, sites int) (*serveInput, error) {
	rng := stats.NewRand(seed)
	in := &serveInput{checkN: 256}
	for _, r := range profileRequests() {
		in.warm = append(in.warm, in.add(r))
	}
	in.stream = make([]int32, streamLen)
	for i := range in.stream {
		in.stream[i] = int32(in.add(novelRequest(rng, seed*10_000_000+int64(i), sites)))
	}
	return in, in.encode()
}

// Serve-churn schedule. The offered rate is fixed once for the mix; it
// is never recomputed per run. Right after a publication every request
// is a solve, and two connections carry about 450 solves/s on a 2-core
// host, so 160/s keeps that convoy near a third of capacity (the warm
// mix sustains ~1300/s).
const (
	churnRate  = 160.0 // scheduled requests per second
	churnEpoch = 640   // scheduled requests per snapshot epoch
	churnHot   = 0.75  // share of requests drawn from the hot pool
	churnDrift = 0.10  // ±relative LT/BT drift per publication
)

// churnInput: an open loop of 75% hot-pool and 25% novel requests. Each
// epoch of churnEpoch scheduled requests starts with the publication of
// a drifted snapshot, so every epoch opens with the whole hot pool
// missing at once.
func churnInput(seed int64, seconds float64, base model) (*serveInput, error) {
	rng := stats.NewRand(seed)
	in := &serveInput{checkN: 256, open: true, rate: churnRate, epoch: churnEpoch}
	for _, r := range profileRequests() {
		in.warm = append(in.warm, in.add(r))
	}
	hot := make([]int32, hotPool)
	for k := range hot {
		hot[k] = int32(in.add(service.MapRequest{Workload: presets[k%len(presets)], Procs: presetProcs, Algorithm: "geo", Seed: seed*1000 + int64(k)}))
	}
	n := int(math.Ceil(seconds * churnRate))
	in.checkN = min(in.checkN, n)
	in.stream = make([]int32, n)
	for i := range in.stream {
		if rng.Float64() < churnHot {
			in.stream[i] = hot[rng.Intn(hotPool)]
		} else {
			in.stream[i] = int32(in.add(novelRequest(rng, seed*10_000_000+int64(i), len(base.LT))))
		}
	}
	for e := 0; e*churnEpoch < n; e++ {
		in.drifts = append(in.drifts, model{LT: drift(base.LT, rng), BT: drift(base.BT, rng)})
	}
	return in, in.encode()
}

// drift scales every entry by a seeded factor in [1-churnDrift, 1+churnDrift].
func drift(m [][]float64, rng *rand.Rand) [][]float64 {
	out := make([][]float64, len(m))
	for k, row := range m {
		out[k] = make([]float64, len(row))
		for l, v := range row {
			out[k][l] = v * (1 + churnDrift*(2*rng.Float64()-1))
		}
	}
	return out
}

// servedCloud is the network model every serve-* server starts from.
func servedCloud() (*netmodel.Cloud, error) {
	return netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions, nodesPerSite, netmodel.Options{Seed: 1})
}

func rows(m *mat.Matrix) [][]float64 {
	out := make([][]float64, m.Rows())
	for k := range out {
		out[k] = m.Row(k)
	}
	return out
}

// largeInput is the multilevel replay's instance: the traffic list and
// the site model of 32 sites × 100k processes, generated from the seed.
type largeInput struct {
	src, dst     []int32
	volume, msgs []float64
	pc           []geo.LatLon
	lt, bt       *mat.Matrix
	capacity     mat.IntVec
}

func newLargeInput(seed int64) *largeInput {
	in := &largeInput{pc: largeSiteCoords(largeSites)}
	patternEdges(largeProcs, stats.NewRand(seed), func(src, dst int, vol, msgs float64) {
		in.src = append(in.src, int32(src))
		in.dst = append(in.dst, int32(dst))
		in.volume = append(in.volume, vol)
		in.msgs = append(in.msgs, msgs)
	})
	m := largeSites
	in.lt, in.bt = mat.NewSquare(m), mat.NewSquare(m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				in.lt.Set(k, l, 0.0002)
				in.bt.Set(k, l, 1e9)
				continue
			}
			km := geo.HaversineKm(in.pc[k], in.pc[l])
			in.lt.Set(k, l, 0.0005+km*5e-6)
			in.bt.Set(k, l, 2.5e8/(1+km/5000))
		}
	}
	in.capacity = mat.NewIntVec(m, (largeProcs+m-1)/m+largeProcs/(8*m)+1)
	return in
}

// graph builds the communication graph: the work comm.build_ms times.
func (in *largeInput) graph() *comm.Graph {
	g := comm.NewGraph(largeProcs)
	for e := range in.src {
		g.AddTraffic(int(in.src[e]), int(in.dst[e]), in.volume[e], in.msgs[e])
	}
	return g
}

func (in *largeInput) problem(g *comm.Graph) *core.Problem {
	return &core.Problem{
		Comm:       g,
		LT:         in.lt,
		BT:         in.bt,
		PC:         in.pc,
		Capacity:   in.capacity,
		Constraint: mat.NewIntVec(largeProcs, core.Unconstrained),
	}
}

// anchorSites are real EC2 region coordinates; larger synthetic clouds
// continue with a golden-angle spread over the populated latitudes.
var anchorSites = []geo.LatLon{
	{Lat: 38.95, Lon: -77.45}, {Lat: 37.35, Lon: -121.96}, {Lat: 45.84, Lon: -119.29},
	{Lat: 53.35, Lon: -6.26}, {Lat: 50.12, Lon: 8.68}, {Lat: 1.29, Lon: 103.85},
	{Lat: -33.87, Lon: 151.21}, {Lat: 35.68, Lon: 139.69}, {Lat: 19.08, Lon: 72.88},
	{Lat: -23.55, Lon: -46.63}, {Lat: 45.50, Lon: -73.57},
}

func largeSiteCoords(m int) []geo.LatLon {
	pc := make([]geo.LatLon, m)
	for k := range pc {
		if k < len(anchorSites) {
			pc[k] = anchorSites[k]
			continue
		}
		i := k - len(anchorSites)
		lon := math.Mod(-180+137.5*float64(i+1)+180, 360) - 180
		pc[k] = geo.LatLon{Lat: -40 + 18*float64(i%5), Lon: lon}
	}
	return pc
}
