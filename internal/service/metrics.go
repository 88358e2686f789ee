package service

import (
	"sync"

	"geoprocmap/internal/stats"
)

// latencyWindow is how many recent samples each latency distribution
// retains; percentiles are computed over this sliding window so /metrics
// reflects current behavior, not the daemon's whole lifetime.
const latencyWindow = 4096

// Metrics is the daemon's operational counter set. All methods are safe
// for concurrent use; reads take a consistent point-in-time view.
type Metrics struct {
	mu sync.Mutex

	requests   uint64
	cacheHits  uint64
	deduped    uint64
	solves     uint64
	errors     uint64
	rejected   uint64 // queue-full sheds
	timeouts   uint64 // deadline exceeded
	snapshots  uint64 // snapshot publications observed via RecordSnapshot
	peerHits   uint64 // shard misses filled by the owning peer (cluster mode)
	forwarded  uint64 // requests received from a peer's shard-miss consult
	peerErrors uint64 // failed peer consults that fell back to a local solve
	// reqLat holds served requests only. Sheds and timeouts land in
	// shedLat: a storm of microsecond 503s must not drag the reported
	// service percentiles down exactly when the daemon is least healthy.
	reqLat      *ring
	shedLat     *ring
	solveLat    *ring
	inflight    int
	maxInflight int // high-water mark of concurrent requests
}

// ring is a fixed-capacity overwrite-oldest sample buffer.
type ring struct {
	buf  []float64
	next int
	full bool
}

func newRing(n int) *ring { return &ring{buf: make([]float64, n)} }

func (r *ring) add(v float64) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// samples returns a copy of the live window.
func (r *ring) samples() []float64 {
	if r.full {
		return append([]float64(nil), r.buf...)
	}
	return append([]float64(nil), r.buf[:r.next]...)
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{
		reqLat:   newRing(latencyWindow),
		shedLat:  newRing(latencyWindow),
		solveLat: newRing(latencyWindow),
	}
}

// RequestStarted marks a request in flight.
func (m *Metrics) RequestStarted() {
	m.mu.Lock()
	m.requests++
	m.inflight++
	if m.inflight > m.maxInflight {
		m.maxInflight = m.inflight
	}
	m.mu.Unlock()
}

// RequestFinished records a request's end-to-end seconds and outcome.
// Served outcomes (solved, cached, deduped, peer-filled) enter the
// request-latency window; sheds, timeouts, and errors are recorded in
// their own window so overload cannot pollute the serving percentiles.
func (m *Metrics) RequestFinished(seconds float64, outcome Outcome) {
	m.mu.Lock()
	m.inflight--
	switch outcome {
	case OutcomeCached:
		m.cacheHits++
		m.reqLat.add(seconds)
	case OutcomeDeduped:
		m.deduped++
		m.reqLat.add(seconds)
	case OutcomePeer:
		m.peerHits++
		m.reqLat.add(seconds)
	case OutcomeSolved:
		m.reqLat.add(seconds)
	case OutcomeRejected:
		m.rejected++
		m.shedLat.add(seconds)
	case OutcomeTimeout:
		m.timeouts++
		m.shedLat.add(seconds)
	case OutcomeError:
		m.errors++
		m.shedLat.add(seconds)
	}
	m.mu.Unlock()
}

// SolveFinished records one executed solve's seconds.
func (m *Metrics) SolveFinished(seconds float64) {
	m.mu.Lock()
	m.solves++
	m.solveLat.add(seconds)
	m.mu.Unlock()
}

// RecordSnapshot notes a snapshot publication.
func (m *Metrics) RecordSnapshot() {
	m.mu.Lock()
	m.snapshots++
	m.mu.Unlock()
}

// RecordForwarded notes a request that arrived carrying ForwardedHeader
// — this daemon answered as the shard owner for a peer's miss.
func (m *Metrics) RecordForwarded() {
	m.mu.Lock()
	m.forwarded++
	m.mu.Unlock()
}

// RecordPeerError notes a failed peer consult (the request fell back to
// a local solve).
func (m *Metrics) RecordPeerError() {
	m.mu.Lock()
	m.peerErrors++
	m.mu.Unlock()
}

// Outcome classifies how a request ended.
type Outcome int

// Request outcomes, in rough order of desirability.
const (
	OutcomeSolved Outcome = iota
	OutcomeCached
	OutcomeDeduped
	OutcomePeer // served by fetching the owning peer's result
	OutcomeRejected
	OutcomeTimeout
	OutcomeError
)

// LatencySummary is a percentile digest of one latency distribution.
type LatencySummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// View is the point-in-time JSON shape of /metrics.
type View struct {
	Requests      uint64  `json:"requests"`
	CacheHits     uint64  `json:"cache_hits"`
	Deduped       uint64  `json:"deduped"`
	Solves        uint64  `json:"solves"`
	Errors        uint64  `json:"errors"`
	Rejected      uint64  `json:"rejected"`
	Timeouts      uint64  `json:"timeouts"`
	Snapshots     uint64  `json:"snapshot_publications"`
	PeerHits      uint64  `json:"peer_hits,omitempty"`
	Forwarded     uint64  `json:"forwarded,omitempty"`
	PeerErrors    uint64  `json:"peer_errors,omitempty"`
	HitRate       float64 `json:"cache_hit_rate"`
	Inflight      int     `json:"inflight"`
	MaxInflight   int     `json:"max_inflight"`
	QueueDepth    int     `json:"queue_depth"`
	CacheEntries  int     `json:"cache_entries"`
	PoolWorkers   int     `json:"pool_workers,omitempty"`
	SolverWorkers int     `json:"solver_workers,omitempty"`
	// GraphMemoEntries is the number of profiled workload patterns the
	// server holds (at most graphMemoEntries).
	GraphMemoEntries int `json:"graph_memo_entries"`
	// RequestLatency digests served requests only; ShedLatency holds the
	// rejected/timed-out/errored remainder.
	RequestLatency LatencySummary `json:"request_latency"`
	ShedLatency    LatencySummary `json:"shed_latency,omitempty"`
	SolveLatency   LatencySummary `json:"solve_latency"`
	// SnapshotAgeSeconds is how long the current snapshot has been the
	// newest one, as observed by the read path (see Server.snapshotAge).
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// Components carries the registered auxiliary status blocks (e.g. the
	// re-gauging loop's view or the cluster's peer health), keyed by
	// probe name.
	Components map[string]any `json:"components,omitempty"`
}

// Snapshot summarizes the counters. Queue depth and cache size are
// supplied by the caller (they live on the pool and cache).
func (m *Metrics) Snapshot(queueDepth, cacheEntries int) View {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := View{
		Requests:     m.requests,
		CacheHits:    m.cacheHits,
		Deduped:      m.deduped,
		Solves:       m.solves,
		Errors:       m.errors,
		Rejected:     m.rejected,
		Timeouts:     m.timeouts,
		Snapshots:    m.snapshots,
		PeerHits:     m.peerHits,
		Forwarded:    m.forwarded,
		PeerErrors:   m.peerErrors,
		Inflight:     m.inflight,
		MaxInflight:  m.maxInflight,
		QueueDepth:   queueDepth,
		CacheEntries: cacheEntries,
	}
	if m.requests > 0 {
		v.HitRate = float64(m.cacheHits) / float64(m.requests)
	}
	v.RequestLatency = summarize(m.reqLat.samples())
	v.ShedLatency = summarize(m.shedLat.samples())
	v.SolveLatency = summarize(m.solveLat.samples())
	return v
}

// summarize digests a sample of seconds into millisecond percentiles.
// stats.Percentile panics on empty input by contract, so the empty
// window short-circuits to a zero summary.
func summarize(secs []float64) LatencySummary {
	if len(secs) == 0 {
		return LatencySummary{}
	}
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	return LatencySummary{
		Count: len(ms),
		P50:   stats.Percentile(ms, 50),
		P90:   stats.Percentile(ms, 90),
		P99:   stats.Percentile(ms, 99),
		Max:   stats.Max(ms),
	}
}
