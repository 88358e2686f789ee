package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/mat"
)

// Config assembles a Server. Zero values select the noted defaults.
type Config struct {
	// Store supplies network snapshots; required.
	Store *Store
	// Workers is the number of solves the pool runs at once (default 4).
	Workers int
	// SolverWorkers is the per-solve order-search parallelism handed to
	// the geo mapper's Workers knob. Zero derives max(1, GOMAXPROCS /
	// Workers). Because pool workers run solves concurrently, the product
	// Workers × SolverWorkers is clamped to GOMAXPROCS so a saturated pool
	// cannot oversubscribe the machine; placements are byte-identical at
	// every setting, so the clamp never changes answers.
	SolverWorkers int
	// QueueDepth bounds the solves waiting for a pool slot before
	// requests are shed with 503 (default 4 × Workers).
	QueueDepth int
	// CacheSize bounds the result LRU (default 1024 entries).
	CacheSize int
	// MaxProcs is the largest accepted process count (default 4096).
	MaxProcs int
	// DefaultDeadline applies to requests that set no deadline_ms
	// (default 30 s).
	DefaultDeadline time.Duration
	// MaxStaleness degrades /healthz to 503 once the current snapshot has
	// been the newest one for longer than this — the operator-visible
	// symptom of a stuck or frozen re-gauging loop. Zero disables the
	// check (snapshot age is still reported).
	MaxStaleness time.Duration
	// Now supplies the staleness clock (default time.Now). Tests inject a
	// monotonic fake so staleness transitions are exact, not sleep-timed.
	Now func() time.Time
	// Cluster enables the multi-node mode: requests this daemon does not
	// own consult the shard owner before solving locally, and snapshot
	// publications fan out to the fleet. Nil serves single-node.
	Cluster *Cluster
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// StatusFunc supplies an auxiliary status block rendered under its name
// in /healthz and /metrics (e.g. the re-gauging loop's state). ok=false
// marks the daemon "degraded" in /healthz without changing the HTTP
// status — only snapshot staleness escalates to 503, because a degraded
// gauger with a fresh snapshot is still serving sound placements.
type StatusFunc func() (v any, ok bool)

// Server is the mapping service: stateless HTTP handlers over the
// snapshot store, solver pool, and result cache. Create with NewServer,
// mount Handler on a listener, and Close to drain.
type Server struct {
	store   *Store
	cache   *resultCache
	pool    *Pool
	metrics *Metrics
	cluster *Cluster // nil in single-node mode

	maxProcs        int
	defaultDeadline time.Duration
	maxStaleness    time.Duration
	poolWorkers     int
	solverWorkers   int
	logf            func(format string, args ...any)
	now             func() time.Time
	started         time.Time

	// obsMu guards the lazy staleness observation: the first read that
	// sees a new snapshot version stamps it with the injected clock, and
	// age is measured from that stamp. Observing in the read path (not in
	// Store.Publish) keeps the store free of clock calls, which matters
	// because the re-gauging loop publishes from deterministic roots.
	obsMu      sync.Mutex
	obsVersion uint64
	obsAt      time.Time

	// statusMu guards the registered auxiliary status probes.
	statusMu     sync.Mutex
	statusProbes map[string]StatusFunc

	// graphs memoizes profiled workload patterns keyed by
	// "workload/procs/iters"; profiling LU at n=64 costs milliseconds
	// but doing it per request would dominate cached-path latency. An
	// evicted key is profiled again: the profile is a pure function of
	// its key (see graphFor).
	graphs *memo[*comm.Graph]

	// solveHook, when non-nil, runs inside every executed solve, before
	// the request's graph is built; tests use it to inject latency and
	// synchronization, and to see the request the solve reads.
	solveHook func(req *MapRequest)
	// profileHook, when non-nil, runs in every profile graphFor starts,
	// before it profiles; tests use it to hold a profile and count them.
	profileHook func(key string)
}

// NewServer wires the service together.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("service: Config.Store is required")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.MaxProcs == 0 {
		cfg.MaxProcs = 4096
	}
	if cfg.DefaultDeadline == 0 {
		cfg.DefaultDeadline = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaxStaleness < 0 {
		return nil, fmt.Errorf("service: MaxStaleness = %v, want >= 0", cfg.MaxStaleness)
	}
	if cfg.SolverWorkers < 0 {
		return nil, fmt.Errorf("service: SolverWorkers = %d, want >= 0", cfg.SolverWorkers)
	}
	solverWorkers := clampSolverWorkers(cfg.Workers, cfg.SolverWorkers, runtime.GOMAXPROCS(0))
	if cfg.SolverWorkers > 0 && solverWorkers != cfg.SolverWorkers {
		cfg.Logf("solver workers clamped %d → %d: %d pool workers × %d per solve would oversubscribe GOMAXPROCS=%d",
			cfg.SolverWorkers, solverWorkers, cfg.Workers, cfg.SolverWorkers, runtime.GOMAXPROCS(0))
	}
	started := cfg.Now()
	s := &Server{
		store:           cfg.Store,
		cache:           newResultCache(cfg.CacheSize),
		pool:            NewPool(cfg.Workers, cfg.QueueDepth),
		metrics:         NewMetrics(),
		cluster:         cfg.Cluster,
		maxProcs:        cfg.MaxProcs,
		defaultDeadline: cfg.DefaultDeadline,
		maxStaleness:    cfg.MaxStaleness,
		poolWorkers:     cfg.Workers,
		solverWorkers:   solverWorkers,
		logf:            cfg.Logf,
		now:             cfg.Now,
		started:         started,
		obsVersion:      cfg.Store.Current().Version,
		obsAt:           started,
		graphs:          newMemo[*comm.Graph](graphMemoEntries),
		statusProbes:    map[string]StatusFunc{},
	}
	if s.cluster != nil {
		s.statusProbes["cluster"] = s.cluster.StatusProbe
	}
	return s, nil
}

// clampSolverWorkers resolves the per-solve parallelism: requested = 0
// derives a value that exactly fills the machine when every pool worker is
// busy, and an explicit request is capped by the same oversubscription
// rule (poolWorkers × solverWorkers ≤ GOMAXPROCS, floor 1).
func clampSolverWorkers(poolWorkers, requested, maxProcs int) int {
	limit := maxProcs / poolWorkers
	if limit < 1 {
		limit = 1
	}
	if requested == 0 || requested > limit {
		return limit
	}
	return requested
}

// Metrics exposes the server's counter set (geomapd logs a summary on
// shutdown).
func (s *Server) Metrics() *Metrics { return s.metrics }

// RegisterStatus attaches an auxiliary status probe rendered under name
// in /healthz and /metrics. Later registrations under the same name
// replace earlier ones.
func (s *Server) RegisterStatus(name string, fn StatusFunc) {
	s.statusMu.Lock()
	s.statusProbes[name] = fn
	s.statusMu.Unlock()
}

// CachedPlacements returns a point-in-time copy of the result cache in
// recency order — the re-gauging loop's view of the placements clients
// are currently acting on. Each Result is decoded afresh from the
// entry, so the caller may change it. An explicit-edge Request is a copy
// with its edge list unpacked afresh; a preset Request is the entry's
// own. Either is read-only, as its constraint and allowed sets are the
// entry's.
func (s *Server) CachedPlacements() []CachedPlacement { return s.cache.walk() }

// InsertResult stores a (request, result) pair in the result cache under
// the fingerprint of the request against res.SnapshotVersion, as a solve
// stores its own; a result that cannot be encoded is logged and not
// stored. Entries for older snapshot versions need no eviction — their
// keys simply stop matching. The re-gauging loop uses this to install
// remapped placements so subsequent identical requests hit the
// refreshed result.
func (s *Server) InsertResult(req *MapRequest, res *MapResult) string {
	req = req.withEdges()
	key := fingerprint(req, res.SnapshotVersion)
	if err := s.cache.add(key, req, res); err != nil {
		s.logf("cache: result for %.12s not cached: %v", key, err)
	}
	return key
}

// GraphProvider exposes the server's memoizing workload profiler for
// out-of-band problem rebuilds (the re-gauging loop).
func (s *Server) GraphProvider() GraphFunc { return s.graphFor }

// snapshotAge reports how long the current snapshot has been the newest
// one, as observed by the read path: the first call that sees a new
// version stamps it with the injected clock, and subsequent calls measure
// from that stamp.
func (s *Server) snapshotAge(now time.Time) (uint64, time.Duration) {
	cur := s.store.Current()
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if cur.Version != s.obsVersion {
		s.obsVersion = cur.Version
		s.obsAt = now
	}
	return cur.Version, now.Sub(s.obsAt)
}

// statusBlocks evaluates the registered probes in name order, returning
// the rendered map and whether every probe reported healthy.
func (s *Server) statusBlocks() (map[string]any, bool) {
	s.statusMu.Lock()
	names := make([]string, 0, len(s.statusProbes))
	for name := range s.statusProbes {
		names = append(names, name)
	}
	probes := make([]StatusFunc, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		probes = append(probes, s.statusProbes[name])
	}
	s.statusMu.Unlock()
	if len(names) == 0 {
		return nil, true
	}
	out := make(map[string]any, len(names))
	allOK := true
	for i, name := range names {
		v, ok := probes[i]()
		out[name] = v
		if !ok {
			allOK = false
		}
	}
	return out, allOK
}

// Close drains the solver pool: admission stops, admitted solves finish.
// Call after the HTTP listener has stopped accepting connections.
func (s *Server) Close() { s.pool.Close() }

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", s.handleMap)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshotGet)
	mux.HandleFunc("POST /admin/snapshot", s.handleSnapshotPost)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// maxBodyBytes bounds request bodies; an explicit 8192-process edge list
// fits comfortably.
const maxBodyBytes = 64 << 20

// bodyPool recycles /v1/map body buffers, so a steady stream of bodies
// is read without allocating. Buffers above maxPooledBody (a
// ~5,000-process edge list) are left to the collector rather than held.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// readRequest reads the whole body, at most maxBodyBytes of it, and
// decodes it. A longer body is an error even when its first JSON value
// ends before the limit. The edge-list buffer is decodeRequest's.
func readRequest(w http.ResponseWriter, r *http.Request) (MapRequest, *[]Edge, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return MapRequest{}, nil, err
	}
	return decodeRequest(buf.Bytes())
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.RequestStarted()
	outcome := OutcomeError
	defer func() { s.metrics.RequestFinished(time.Since(start).Seconds(), outcome) }()

	// edges holds req.Edges when they came from edgePool; it goes back
	// only where no solve can still read them (see edgePool).
	req, edges, err := readRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}

	// The snapshot is pinned once per request: even if a publication
	// lands mid-solve, this request is answered consistently against
	// the version it names in the response.
	snap := s.store.Current()
	if err := req.validate(s.maxProcs, snap); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	deadline := s.defaultDeadline
	if req.DeadlineMillis > 0 {
		deadline = time.Duration(req.DeadlineMillis) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// A forwarded request is a peer's shard-miss consult: this daemon is
	// the owner and must answer locally regardless of what its own ring
	// says, so a disagreeing fleet config bounces at most one hop.
	forwarded := r.Header.Get(ForwardedHeader) != ""
	if forwarded {
		s.metrics.RecordForwarded()
	}

	key := fingerprint(&req, snap.Version)
	if body, ok := s.cache.get(key); ok {
		outcome = OutcomeCached
		writeResult(w, body, outcome)
		releaseEdges(edges)
		return
	}

	// fromPeer is written only inside the singleflight leader's closure,
	// which runs in this goroutine or not at all (waiters share the
	// leader's result without executing it).
	fromPeer := false
	body, shared, err := s.cache.do(ctx, key, &req, func() (*MapResult, error) {
		r, peer, err := s.resolve(ctx, &req, snap, forwarded)
		fromPeer = peer
		return r, err
	})
	switch {
	case err == nil:
		switch {
		case shared:
			outcome = OutcomeDeduped
		case fromPeer:
			outcome = OutcomePeer
		default:
			outcome = OutcomeSolved
		}
		writeResult(w, body, outcome)
		releaseEdges(edges)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		outcome = OutcomeTimeout
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("deadline of %v exceeded", deadline))
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrPoolClosed):
		outcome = OutcomeRejected
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		outcome = OutcomeError
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

// resolve obtains the result for a cache miss. In single-node mode (and
// for forwarded requests, where this daemon is the shard owner by
// definition) it solves locally. In cluster mode a request owned by a
// peer consults that peer first — the owner serves its cache or solves
// under its own singleflight, so concurrent misses across the fleet
// still collapse onto one solve — and only falls back to a local solve
// when the peer is unreachable or answers against a different snapshot
// version than the one this request pinned. peer reports whether the
// returned result came from the owning peer.
func (s *Server) resolve(ctx context.Context, req *MapRequest, snap *Snapshot, forwarded bool) (res *MapResult, peer bool, err error) {
	if s.cluster != nil && !forwarded {
		rk := RoutingKey(req)
		owner := s.cluster.Owner(rk)
		if !s.cluster.IsSelf(owner) {
			pres, perr := s.cluster.FetchResult(ctx, owner, req)
			if perr == nil && pres.SnapshotVersion == snap.Version {
				return pres, true, nil
			}
			if ctx.Err() != nil {
				// The consult died with the request's own deadline; a
				// local solve would be admitted dead.
				return nil, false, ctx.Err()
			}
			s.metrics.RecordPeerError()
			if perr != nil {
				s.logf("cluster: owner %s unavailable for %.12s, solving locally: %v", owner, rk, perr)
			} else {
				s.logf("cluster: owner %s answered snapshot v%d, local is v%d; solving locally",
					owner, pres.SnapshotVersion, snap.Version)
			}
		}
	}
	res, err = s.solve(ctx, req, snap)
	return res, false, err
}

// solve runs one mapping end to end in a pool slot: profile (or
// decode) the pattern, assemble the problem against the pinned snapshot,
// and map. It is only ever executed by a singleflight leader.
func (s *Server) solve(ctx context.Context, req *MapRequest, snap *Snapshot) (*MapResult, error) {
	var (
		res      *MapResult
		solveErr error
	)
	err := s.pool.Submit(ctx, func() {
		t0 := time.Now()
		if s.solveHook != nil {
			s.solveHook(req)
		}
		if res, solveErr = solveRequest(req, snap, s.graphFor, s.solverWorkers); solveErr != nil {
			return
		}
		elapsed := time.Since(t0)
		s.metrics.SolveFinished(elapsed.Seconds())
		res.SolveMillis = float64(elapsed.Microseconds()) / 1e3
	})
	if err != nil {
		return nil, err
	}
	if solveErr == nil && res == nil {
		// Belt and braces: a nil result with no error would be cached
		// and dereferenced by every later hit on this fingerprint.
		return nil, fmt.Errorf("service: solve produced no result")
	}
	return res, solveErr
}

// solveRequest maps req against snap: it profiles the workload through
// graphFor or builds the explicit edge list's graph, assembles the
// problem, maps it with solverWorkers order-search workers and prices
// the placement. An explicit edge list's graph belongs to this solve
// alone, so its rows go back to comm's pool (Graph.Release) once the
// result is priced; a preset's graph belongs to graphFor's memo and is
// kept.
func solveRequest(req *MapRequest, snap *Snapshot, graphFor GraphFunc, solverWorkers int) (*MapResult, error) {
	prob, err := req.Problem(snap, graphFor)
	if err != nil {
		return nil, err
	}
	if req.Workload == "" {
		defer prob.Comm.Release()
	}
	mapper, err := req.Mapper(solverWorkers)
	if err != nil {
		return nil, err
	}
	pl, err := mapper.Map(prob)
	if err != nil {
		return nil, err
	}
	return NewMapResult(prob, pl, snap.Version, mapper.Name()), nil
}

// graphMemoEntries bounds Server.graphs, the workload-profile memo.
// procs ≤ MaxProcs and iters ≤ maxIters allow millions of distinct keys,
// each holding a profiled graph, so an unbounded memo would let one
// client grow daemon memory without limit. 64 is well above the handful
// of preset keys a steady workload mix cycles through.
const graphMemoEntries = 64

// graphFor memoizes workload profiling in s.graphs. Concurrent misses
// on one key profile it once, since the result cache collapses only
// identical requests, and requests that differ in seed or pins share a
// profile. An error is handed to the waiters and not memoized, so the
// next miss profiles again. A profiled graph is frozen before it enters
// the memo, so the memo holds only CSR rows: never a call log or its
// fold scratch, which the freeze hands back to comm's pool for the next
// profile.
func (s *Server) graphFor(workload string, procs, iters int) (*comm.Graph, error) {
	key := fmt.Sprintf("%s/%d/%d", workload, procs, iters)
	// GraphFunc carries no context, so a waiter waits for the profile
	// in flight however long it takes.
	g, _, err := s.graphs.do(context.Background(), key, func() (*comm.Graph, error) {
		if s.profileHook != nil {
			s.profileHook(key)
		}
		g, err := profileGraph(workload, procs, iters)
		if err != nil {
			return nil, err
		}
		g.Prewarm()
		return g, nil
	})
	return g, err
}

// snapshotView is the JSON shape of GET /v1/snapshot and /healthz's
// snapshot block.
type snapshotView struct {
	Version   uint64   `json:"version"`
	Source    string   `json:"source"`
	Sites     int      `json:"sites"`
	SiteNames []string `json:"site_names,omitempty"`
	Capacity  []int    `json:"capacity"`
	Degraded  [][2]int `json:"degraded_pairs,omitempty"`
}

func viewOf(snap *Snapshot) snapshotView {
	return snapshotView{
		Version:   snap.Version,
		Source:    snap.Source,
		Sites:     snap.M(),
		SiteNames: snap.SiteNames,
		Capacity:  snap.Capacity,
		Degraded:  snap.Degraded,
	}
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, viewOf(s.store.Current()))
}

// SnapshotUpdate is the body of POST /admin/snapshot. Exactly one of
// (LT+BT) or FaultReport must be set: fresh matrices replace the model
// wholesale (a calibration landing), while a fault report derives a
// degraded model from the last measured snapshot (WANify-style runtime
// re-gauging feeding placement). Each report replaces the previous
// fault overlay rather than stacking on it.
//
// A non-zero Version marks a cluster replication message: the sender
// already published this snapshot at that version and is fanning the
// concrete matrices out, so Version requires LT+BT (never a fault
// report — the receiver must not re-derive against its own base) and is
// applied idempotently via Store.PublishAt. Replication messages are
// never fanned out again.
type SnapshotUpdate struct {
	Source      string         `json:"source,omitempty"`
	LT          [][]float64    `json:"lt,omitempty"`
	BT          [][]float64    `json:"bt,omitempty"`
	FaultReport *faults.Report `json:"fault_report,omitempty"`
	// Degraded carries the published snapshot's unreliable-pair list on
	// the replication path.
	Degraded [][2]int `json:"degraded,omitempty"`
	// Derived marks a replicated snapshot as fault-derived so the
	// receiver's base-snapshot tracking stays consistent with the
	// origin's.
	Derived bool `json:"derived,omitempty"`
	// Version is the origin-assigned snapshot version (0 = an ordinary
	// origin update, which assigns the next local version).
	Version uint64 `json:"version,omitempty"`
}

func (s *Server) handleSnapshotPost(w http.ResponseWriter, r *http.Request) {
	var upd SnapshotUpdate
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&upd); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding snapshot update: %w", err))
		return
	}
	cur := s.store.Current()
	var next *Snapshot
	switch {
	case upd.FaultReport != nil && (upd.LT != nil || upd.BT != nil):
		writeError(w, http.StatusBadRequest, fmt.Errorf("matrices and fault_report are mutually exclusive"))
		return
	case upd.Version > 0:
		s.handleSnapshotReplication(w, cur, &upd)
		return
	case upd.FaultReport != nil:
		// Derive from the last measured snapshot, not cur: cur may
		// itself be fault-degraded, and stacking reports would compound
		// penalties on every re-gauge.
		next = s.store.Base().WithFaultReport(upd.FaultReport)
	case upd.LT != nil && upd.BT != nil:
		// Fresh matrices are a measured model: a client-sent degraded
		// list or derived flag is ignored on the origin path.
		var err error
		if next, err = withMatrices(cur, &upd, nil, false, "admin"); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("snapshot update needs lt+bt matrices or a fault_report"))
		return
	}
	version, err := s.store.Publish(next)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.RecordSnapshot()
	s.logf("snapshot v%d published (%s)", version, next.Source)
	if s.cluster != nil {
		// This daemon is the origin: fan the published snapshot out at
		// its assigned version. Failed legs are logged and recorded in
		// peer health; the peer catches up on the next publication.
		s.cluster.Replicate(next)
	}
	writeJSON(w, http.StatusOK, viewOf(next))
}

// handleSnapshotReplication applies a version-carrying SnapshotUpdate —
// a peer's fan-out of a snapshot it already published. The receiver
// keeps its own topology (coordinates, capacities, names are boot-time
// fleet-wide constants) and adopts the replicated matrices at exactly
// the origin's version; stale or duplicate versions are acknowledged
// without effect, which is what makes replays idempotent.
func (s *Server) handleSnapshotReplication(w http.ResponseWriter, cur *Snapshot, upd *SnapshotUpdate) {
	if upd.FaultReport != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("replication carries matrices, never a fault report"))
		return
	}
	if upd.LT == nil || upd.BT == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("replicated snapshot v%d needs lt+bt matrices", upd.Version))
		return
	}
	next, err := withMatrices(cur, upd, upd.Degraded, upd.Derived, "replicated")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	applied, err := s.store.PublishAt(next, upd.Version)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if applied {
		s.metrics.RecordSnapshot()
		s.logf("snapshot v%d replicated in (%s)", upd.Version, next.Source)
		writeJSON(w, http.StatusOK, viewOf(next))
		return
	}
	// Stale replay: acknowledge with the snapshot the store kept.
	writeJSON(w, http.StatusOK, viewOf(s.store.Current()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := s.now()
	snap := s.store.Current()
	_, age := s.snapshotAge(now)
	blocks, probesOK := s.statusBlocks()
	status := "ok"
	httpStatus := http.StatusOK
	if !probesOK {
		status = "degraded"
	}
	// Only staleness escalates to 503: a load balancer should stop
	// steering traffic at a daemon whose model has gone stale, but a
	// merely degraded gauger with a fresh snapshot still serves soundly.
	if s.maxStaleness > 0 && age > s.maxStaleness {
		status = "degraded"
		httpStatus = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":               status,
		"uptime_seconds":       now.Sub(s.started).Seconds(),
		"snapshot":             viewOf(snap),
		"snapshot_age_seconds": age.Seconds(),
	}
	if s.maxStaleness > 0 {
		body["max_staleness_seconds"] = s.maxStaleness.Seconds()
	}
	if len(blocks) > 0 {
		body["components"] = blocks
	}
	writeJSON(w, httpStatus, body)
}

// withMatrices decodes an update's lt+bt matrices into an unpublished copy
// of cur (version 0) that carries the given degraded list and derived
// flag, sourced from upd.Source when set and defaultSource otherwise.
func withMatrices(cur *Snapshot, upd *SnapshotUpdate, degraded [][2]int, derived bool, defaultSource string) (*Snapshot, error) {
	lt, err := mat.From(upd.LT)
	if err != nil {
		return nil, fmt.Errorf("lt: %w", err)
	}
	bt, err := mat.From(upd.BT)
	if err != nil {
		return nil, fmt.Errorf("bt: %w", err)
	}
	next := *cur
	next.Version = 0
	next.LT, next.BT = lt, bt
	next.Degraded, next.derived = degraded, derived
	next.Source = defaultSource
	if upd.Source != "" {
		next.Source = upd.Source
	}
	return &next, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	v := s.metrics.Snapshot(s.pool.QueueDepth(), s.cache.len())
	// The two parallelism knobs live on the server, not the counter set;
	// exposing both lets operators verify the pool × per-solve product
	// against the machine (the oversubscription rule in Config).
	v.PoolWorkers = s.poolWorkers
	v.SolverWorkers = s.solverWorkers
	v.GraphMemoEntries = s.graphs.len()
	_, age := s.snapshotAge(s.now())
	v.SnapshotAgeSeconds = age.Seconds()
	blocks, _ := s.statusBlocks()
	v.Components = blocks
	writeJSON(w, http.StatusOK, v)
}

// responseTails close a cached result's bytes (see newCacheEntry) into
// the MapResponse each outcome answers with. A request's result is
// shared (deduped) only when another request led its solve, and comes
// from a peer only when it led the solve itself, so no answer is both.
var responseTails = [...][]byte{
	OutcomeSolved:  []byte(`,"cached":false}` + "\n"),
	OutcomeCached:  []byte(`,"cached":true}` + "\n"),
	OutcomeDeduped: []byte(`,"cached":false,"deduped":true}` + "\n"),
	OutcomePeer:    []byte(`,"cached":false,"peer":true}` + "\n"),
}

// writeResult answers 200 with a cached result's bytes and the flags of
// outcome: byte for byte what writeJSON writes for the MapResponse, with
// no encoder run.
func writeResult(w http.ResponseWriter, body []byte, outcome Outcome) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// The response is already committed; a write error means a gone client.
	_, _ = w.Write(body)
	_, _ = w.Write(responseTails[outcome])
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the response is already committed; a write error means a gone client
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
