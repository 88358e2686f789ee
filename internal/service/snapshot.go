// Package service is the mapping-as-a-service layer: a long-running
// daemon core that answers geo-distributed process-mapping queries over
// HTTP/JSON instead of one problem per CLI invocation.
//
// The paper's economics make this shape natural: site-level LT/BT
// calibration costs M(M−1) probe sessions (minutes), after which solving
// a mapping is milliseconds — so one slowly-refreshed network model can
// serve many mapping queries. The package separates the two rates
// explicitly:
//
//   - a Store of immutable, monotonically versioned network Snapshots
//     (LT/BT/PC/capacities), atomically swapped when calibration or a
//     fault report lands, read lock-free on the hot path;
//   - a bounded worker Pool that solves validated problems under
//     per-request context deadlines;
//   - a fingerprint-keyed LRU result cache with singleflight
//     deduplication, keyed on the canonical hash of the request *and* the
//     snapshot version, so a snapshot swap naturally invalidates results
//     without any explicit flush.
//
// cmd/geomapd wires the package to an HTTP listener and signal handling;
// cmd/geoload is the closed-loop benchmark client.
package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"geoprocmap/internal/calib"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/netmodel"
)

// Snapshot is one immutable version of the network model: everything a
// mapping request needs besides its communication pattern. Snapshots are
// never mutated after publication — degrading a snapshot produces a new
// one — so readers need no locks and responses can name the exact
// version they were solved against.
type Snapshot struct {
	// Version is assigned by the Store at publication, strictly
	// increasing from 1.
	Version uint64
	// Source records where the matrices came from ("ground-truth",
	// "calibration", "fault-report", "admin", …) for /healthz and logs.
	Source string
	// LT and BT are the M×M latency (seconds) and bandwidth (bytes/s)
	// matrices. Treated as read-only.
	LT, BT *mat.Matrix
	// PC holds the physical coordinates of each site.
	PC []geo.LatLon
	// Capacity is the per-site node count (the paper's I vector).
	Capacity mat.IntVec
	// SiteNames labels sites in human-facing output (region names).
	SiteNames []string
	// Degraded lists directed site pairs whose estimates are known to be
	// unreliable (from calib.Result.Degraded or a faults.Report).
	Degraded [][2]int

	// derived marks snapshots produced by WithFaultReport: penalty
	// overlays on a measured model. The Store never treats them as the
	// base for later fault reports, so re-posting a report cannot
	// compound penalties.
	derived bool
}

// M returns the number of sites.
func (s *Snapshot) M() int { return len(s.Capacity) }

// validate checks the structural invariants a published snapshot must
// hold so every request built from it yields a valid core.Problem.
func (s *Snapshot) validate() error {
	m := s.M()
	if m == 0 {
		return fmt.Errorf("service: snapshot has no sites")
	}
	if s.LT == nil || s.BT == nil {
		return fmt.Errorf("service: snapshot has nil LT/BT")
	}
	if !s.LT.IsSquare() || s.LT.Rows() != m || !s.BT.IsSquare() || s.BT.Rows() != m {
		return fmt.Errorf("service: snapshot matrices are %d×%d and %d×%d, want %d×%d",
			s.LT.Rows(), s.LT.Cols(), s.BT.Rows(), s.BT.Cols(), m, m)
	}
	if len(s.PC) != m {
		return fmt.Errorf("service: snapshot has %d coordinates for %d sites", len(s.PC), m)
	}
	for k := 0; k < m; k++ {
		if s.Capacity[k] <= 0 {
			return fmt.Errorf("service: site %d capacity %d, want > 0", k, s.Capacity[k])
		}
		for l := 0; l < m; l++ {
			if s.BT.At(k, l) <= 0 {
				return fmt.Errorf("service: snapshot BT(%d,%d) = %g, want > 0", k, l, s.BT.At(k, l))
			}
			if s.LT.At(k, l) < 0 {
				return fmt.Errorf("service: snapshot LT(%d,%d) = %g, want >= 0", k, l, s.LT.At(k, l))
			}
		}
	}
	return nil
}

// SnapshotFromCloud builds an unpublished snapshot from a cloud's
// ground-truth matrices (the daemon's bootstrap model before the first
// calibration lands).
func SnapshotFromCloud(c *netmodel.Cloud) *Snapshot {
	names := make([]string, len(c.Sites))
	for i, s := range c.Sites {
		names[i] = s.Region.Name
	}
	return &Snapshot{
		Source:    "ground-truth",
		LT:        c.LT.Clone(),
		BT:        c.BT.Clone(),
		PC:        c.Coordinates(),
		Capacity:  c.Capacity(),
		SiteNames: names,
	}
}

// SnapshotFromCalibration builds an unpublished snapshot carrying a
// calibration result's estimated matrices and degraded-pair flags. The
// cloud supplies topology (coordinates, capacities, names); the result
// supplies the measured LT/BT.
func SnapshotFromCalibration(c *netmodel.Cloud, res *calib.Result) (*Snapshot, error) {
	if res == nil || res.LT == nil || res.BT == nil {
		return nil, fmt.Errorf("service: nil calibration result")
	}
	if res.LT.Rows() != c.M() {
		return nil, fmt.Errorf("service: calibration is %d×%d for a %d-site cloud", res.LT.Rows(), res.LT.Cols(), c.M())
	}
	s := SnapshotFromCloud(c)
	s.Source = "calibration"
	s.LT = res.LT.Clone()
	s.BT = res.BT.Clone()
	s.Degraded = res.DegradedPairs()
	return s, nil
}

// WithFaultReport derives a new unpublished snapshot from s with the
// report's observed faults folded in: every degraded pair's bandwidth is
// scaled down and latency up by DegradeFactor, and every link touching a
// dead site carries netmodel.DeadLinkPenalty, steering cost-driven
// mappers away from it. The
// receiver is not modified; its Degraded list is replaced, not extended
// — the report is the full current fault picture. Derive from a
// measured snapshot (Store.Base), never from an earlier fault-report
// snapshot, or penalties compound.
func (s *Snapshot) WithFaultReport(rep *faults.Report) *Snapshot {
	out := *s
	out.Version = 0
	out.Source = "fault-report"
	out.derived = true
	out.LT = s.LT.Clone()
	out.BT = s.BT.Clone()
	out.Degraded = nil
	if rep.Empty() {
		return &out
	}
	m := s.M()
	dead := make(map[int]bool, len(rep.DeadSites))
	for _, site := range rep.DeadSites {
		if site >= 0 && site < m {
			dead[site] = true
		}
	}
	apply := func(k, l int, factor float64) {
		out.LT.Set(k, l, out.LT.At(k, l)*factor)
		out.BT.Set(k, l, out.BT.At(k, l)/factor)
	}
	seen := map[[2]int]bool{}
	for _, p := range rep.DegradedPairs {
		k, l := p[0], p[1]
		if k < 0 || k >= m || l < 0 || l >= m || seen[p] {
			continue
		}
		seen[p] = true
		if dead[k] || dead[l] {
			continue // the site sweep below applies the full penalty
		}
		apply(k, l, DegradeFactor)
		out.Degraded = append(out.Degraded, p)
	}
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if dead[k] || dead[l] {
				apply(k, l, netmodel.DeadLinkPenalty)
				out.Degraded = append(out.Degraded, [2]int{k, l})
			}
		}
	}
	return &out
}

// DegradeFactor is the pessimism applied to a link a fault report flags
// as degraded but not dead: latency ×4, bandwidth ÷4 — enough to steer
// placements off the link without declaring it unusable.
const DegradeFactor = 4.0

// Store holds the current network snapshot and swaps it atomically.
// Reads are lock-free (a single atomic pointer load on the request hot
// path); publications serialize under a mutex only to assign strictly
// increasing versions.
type Store struct {
	mu      sync.Mutex // serializes Publish
	version uint64
	cur     atomic.Pointer[Snapshot]
	// base is the latest measured (non-derived) snapshot: ground truth,
	// calibration, or admin matrices. Fault reports derive from it so
	// periodic re-gauging re-applies penalties to measurements instead
	// of stacking them on an already-penalized model.
	base atomic.Pointer[Snapshot]
}

// NewStore creates a store and publishes the initial snapshot.
func NewStore(initial *Snapshot) (*Store, error) {
	st := &Store{}
	if _, err := st.Publish(initial); err != nil {
		return nil, err
	}
	return st, nil
}

// Current returns the latest published snapshot. The result is immutable
// and safe to use for the whole lifetime of a request even if a newer
// snapshot is published mid-solve.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// Base returns the latest published snapshot carrying measured or
// administered matrices — the one fault reports should derive from. If
// no measured snapshot has been published (the initial snapshot was
// itself derived), it falls back to Current.
func (st *Store) Base() *Snapshot {
	if b := st.base.Load(); b != nil {
		return b
	}
	return st.cur.Load()
}

// Publish validates snap, assigns it the next version, and makes it the
// current snapshot. The snapshot must not be mutated afterwards. The new
// snapshot must describe the same number of sites as the current one
// (topology changes need a daemon restart, not a hot swap).
func (st *Store) Publish(snap *Snapshot) (uint64, error) {
	if snap == nil {
		return 0, fmt.Errorf("service: nil snapshot")
	}
	if err := snap.validate(); err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur := st.cur.Load(); cur != nil && cur.M() != snap.M() {
		return 0, fmt.Errorf("service: snapshot has %d sites, store is serving %d", snap.M(), cur.M())
	}
	st.version++
	snap.Version = st.version
	st.cur.Store(snap)
	if !snap.derived {
		st.base.Store(snap)
	}
	return snap.Version, nil
}

// PublishAt installs snap at exactly the given version — the
// replication path. The origin daemon assigns a version with Publish
// and fans the snapshot out; receivers apply it here. Ordering makes
// replays idempotent: a version at or below the store's current one is
// ignored (applied=false, no error), so duplicated or reordered
// replication messages cannot regress the model, and a newer version is
// adopted verbatim even across gaps (a peer that missed v2 jumps
// straight to v3 — it catches up on the next publication that reaches
// it).
func (st *Store) PublishAt(snap *Snapshot, version uint64) (applied bool, err error) {
	if snap == nil {
		return false, fmt.Errorf("service: nil snapshot")
	}
	if version == 0 {
		return false, fmt.Errorf("service: replicated snapshot needs a version")
	}
	if err := snap.validate(); err != nil {
		return false, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur := st.cur.Load(); cur != nil && cur.M() != snap.M() {
		return false, fmt.Errorf("service: snapshot has %d sites, store is serving %d", snap.M(), cur.M())
	}
	if version <= st.version {
		return false, nil
	}
	st.version = version
	snap.Version = version
	st.cur.Store(snap)
	if !snap.derived {
		st.base.Store(snap)
	}
	return true, nil
}
