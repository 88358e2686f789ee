package service

import (
	"sync"
	"testing"

	"geoprocmap/internal/calib"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/netmodel"
)

// testSnapshot builds a ground-truth snapshot of the paper's 4-region
// EC2 cloud with n/4 nodes per site.
func testSnapshot(t testing.TB, n int, seed int64) *Snapshot {
	t.Helper()
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions, n/4, netmodel.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return SnapshotFromCloud(cloud)
}

func TestStoreVersionsAreMonotonic(t *testing.T) {
	st, err := NewStore(testSnapshot(t, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Current().Version; got != 1 {
		t.Fatalf("initial version = %d, want 1", got)
	}
	last := uint64(1)
	for i := 0; i < 5; i++ {
		v, err := st.Publish(testSnapshot(t, 16, int64(i+2)))
		if err != nil {
			t.Fatal(err)
		}
		if v <= last {
			t.Fatalf("version %d not above %d", v, last)
		}
		last = v
		if st.Current().Version != v {
			t.Fatalf("Current().Version = %d after publishing %d", st.Current().Version, v)
		}
	}
}

func TestStoreRejectsInvalidSnapshots(t *testing.T) {
	good := testSnapshot(t, 16, 1)
	st, err := NewStore(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	bad := *good
	bad.BT = nil
	if _, err := st.Publish(&bad); err == nil {
		t.Error("nil-BT snapshot accepted")
	}
	// Topology changes are not hot-swappable.
	other := testSnapshot(t, 16, 1)
	other.Capacity = other.Capacity[:3]
	other.PC = other.PC[:3]
	if _, err := st.Publish(other); err == nil {
		t.Error("site-count change accepted")
	}
	if st.Current().Version != 1 {
		t.Errorf("failed publications advanced the version to %d", st.Current().Version)
	}
}

// TestStoreSwapRace hammers Current() from many readers while snapshots
// publish concurrently; run under -race this is the atomic-swap safety
// test the acceptance criteria name.
func TestStoreSwapRace(t *testing.T) {
	st, err := NewStore(testSnapshot(t, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]*Snapshot, 8)
	for i := range fresh {
		fresh[i] = testSnapshot(t, 16, int64(i+10))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Current()
				if snap.Version < lastSeen {
					t.Errorf("version went backwards: %d after %d", snap.Version, lastSeen)
					return
				}
				lastSeen = snap.Version
				// Touch the matrices: immutability means this is safe
				// even while publications land.
				_ = snap.LT.At(0, 1)
				_ = snap.BT.At(1, 0)
			}
		}()
	}
	for i := 0; i < len(fresh); i++ {
		if _, err := st.Publish(fresh[i]); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := st.Current().Version; got != uint64(1+len(fresh)) {
		t.Errorf("final version = %d, want %d", got, 1+len(fresh))
	}
}

func TestSnapshotFromCalibration(t *testing.T) {
	cloud, err := netmodel.PaperCloud(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := calib.Calibrate(cloud, calib.Options{Seed: 1, Days: 1, SamplesPerDay: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := SnapshotFromCalibration(cloud, res)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Source != "calibration" {
		t.Errorf("source = %q", snap.Source)
	}
	if snap.LT.At(0, 1) != res.LT.At(0, 1) {
		t.Error("calibrated LT not carried over")
	}
	if err := snap.validate(); err != nil {
		t.Errorf("calibrated snapshot invalid: %v", err)
	}
	if _, err := SnapshotFromCalibration(cloud, nil); err == nil {
		t.Error("nil result accepted")
	}
}

func TestWithFaultReport(t *testing.T) {
	base := testSnapshot(t, 16, 1)
	rep := &faults.Report{
		Schedule:      "test",
		DeadSites:     []int{2},
		DegradedPairs: [][2]int{{0, 1}, {0, 2}},
	}
	next := base.WithFaultReport(rep)
	if next == base {
		t.Fatal("WithFaultReport must return a fresh snapshot")
	}
	// Degraded pair (0,1): latency up, bandwidth down by DegradeFactor.
	if got, want := next.LT.At(0, 1), base.LT.At(0, 1)*DegradeFactor; got != want {
		t.Errorf("degraded LT(0,1) = %g, want %g", got, want)
	}
	if got, want := next.BT.At(0, 1), base.BT.At(0, 1)/DegradeFactor; got != want {
		t.Errorf("degraded BT(0,1) = %g, want %g", got, want)
	}
	// Dead site 2: every touching link carries the dead penalty, even
	// the pair (0,2) that was also listed as degraded.
	if got, want := next.LT.At(0, 2), base.LT.At(0, 2)*netmodel.DeadLinkPenalty; got != want {
		t.Errorf("dead LT(0,2) = %g, want %g", got, want)
	}
	if got, want := next.BT.At(3, 2), base.BT.At(3, 2)/netmodel.DeadLinkPenalty; got != want {
		t.Errorf("dead BT(3,2) = %g, want %g", got, want)
	}
	// Untouched links are untouched.
	if next.LT.At(0, 3) != base.LT.At(0, 3) || next.BT.At(3, 0) != base.BT.At(3, 0) {
		t.Error("healthy link modified")
	}
	// The receiver must be unmodified.
	fresh := testSnapshot(t, 16, 1)
	if base.LT.At(0, 1) != fresh.LT.At(0, 1) || base.BT.At(0, 2) != fresh.BT.At(0, 2) {
		t.Error("WithFaultReport mutated its receiver")
	}
	// Bandwidths stay strictly positive, so the snapshot is publishable.
	if err := next.validate(); err != nil {
		t.Errorf("fault-degraded snapshot invalid: %v", err)
	}
	// An empty report degrades nothing.
	clean := base.WithFaultReport(&faults.Report{})
	if clean.LT.At(0, 1) != base.LT.At(0, 1) || len(clean.Degraded) != 0 {
		t.Error("empty report changed the matrices")
	}
}

// TestWithFaultReportReplacesDegraded checks that a derived snapshot's
// Degraded list is the report's fault picture alone — not an extension
// of the receiver's list, and never sharing its backing array (two
// concurrent derivations from one snapshot must not write into each
// other or into the published receiver).
func TestWithFaultReportReplacesDegraded(t *testing.T) {
	base := testSnapshot(t, 16, 1)
	base.Degraded = [][2]int{{2, 3}, {3, 2}}

	a := base.WithFaultReport(&faults.Report{DegradedPairs: [][2]int{{0, 1}}})
	b := base.WithFaultReport(&faults.Report{DegradedPairs: [][2]int{{1, 0}}})
	if len(a.Degraded) != 1 || a.Degraded[0] != [2]int{0, 1} {
		t.Errorf("a.Degraded = %v, want the report's pairs only", a.Degraded)
	}
	if len(b.Degraded) != 1 || b.Degraded[0] != [2]int{1, 0} {
		t.Errorf("b.Degraded = %v, want the report's pairs only", b.Degraded)
	}
	if len(base.Degraded) != 2 || base.Degraded[0] != [2]int{2, 3} || base.Degraded[1] != [2]int{3, 2} {
		t.Errorf("receiver's Degraded mutated: %v", base.Degraded)
	}
}

// TestStoreBaseSkipsDerivedSnapshots checks the anti-compounding
// contract: Base() keeps pointing at the last measured snapshot while
// fault-report snapshots publish, so re-deriving the same report yields
// the same penalties (×DegradeFactor, not ×DegradeFactor²).
func TestStoreBaseSkipsDerivedSnapshots(t *testing.T) {
	truth := testSnapshot(t, 16, 1)
	want := truth.LT.At(0, 1) * DegradeFactor
	st, err := NewStore(truth)
	if err != nil {
		t.Fatal(err)
	}
	if st.Base() != st.Current() {
		t.Fatal("fresh store's base is not its current snapshot")
	}
	rep := &faults.Report{DegradedPairs: [][2]int{{0, 1}}}
	for i := 0; i < 3; i++ {
		if _, err := st.Publish(st.Base().WithFaultReport(rep)); err != nil {
			t.Fatal(err)
		}
		if got := st.Current().LT.At(0, 1); got != want {
			t.Fatalf("after report %d, LT(0,1) = %g, want %g (penalties compounded)", i+1, got, want)
		}
		if st.Base() != truth {
			t.Fatalf("after report %d, base drifted off the measured snapshot", i+1)
		}
	}
	// A measured publication (calibration/admin) becomes the new base.
	measured := testSnapshot(t, 16, 2)
	if _, err := st.Publish(measured); err != nil {
		t.Fatal(err)
	}
	if st.Base() != measured {
		t.Error("measured snapshot did not become the base")
	}
}

// TestStorePublishAtOrdering covers the replication path: versions are
// adopted exactly as assigned by the origin, stale replays are ignored
// without error, gaps are jumped, and local publications continue from
// whatever version the store last saw.
func TestStorePublishAtOrdering(t *testing.T) {
	st, err := NewStore(testSnapshot(t, 16, 1)) // v1
	if err != nil {
		t.Fatal(err)
	}

	newer := testSnapshot(t, 16, 2)
	applied, err := st.PublishAt(newer, 2)
	if err != nil || !applied {
		t.Fatalf("PublishAt(v2) = (%v, %v), want applied", applied, err)
	}
	if st.Current().Version != 2 || st.Current() != newer {
		t.Fatalf("current is v%d, want the replicated v2", st.Current().Version)
	}

	// A duplicate or reordered replay must be a no-op, not an error.
	stale := testSnapshot(t, 16, 3)
	for _, v := range []uint64{1, 2} {
		applied, err := st.PublishAt(stale, v)
		if err != nil || applied {
			t.Fatalf("PublishAt(stale v%d) = (%v, %v), want silent no-op", v, applied, err)
		}
	}
	if st.Current() != newer {
		t.Fatal("stale replay replaced the current snapshot")
	}

	// A receiver that missed v3 and v4 jumps straight to v5.
	jump := testSnapshot(t, 16, 4)
	if applied, err := st.PublishAt(jump, 5); err != nil || !applied {
		t.Fatalf("PublishAt(v5 across a gap) = (%v, %v), want applied", applied, err)
	}
	// Local publication continues after the adopted version.
	v, err := st.Publish(testSnapshot(t, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 {
		t.Errorf("Publish after adopting v5 assigned v%d, want v6", v)
	}

	// Version 0 and topology mismatches are rejected.
	if _, err := st.PublishAt(testSnapshot(t, 16, 6), 0); err == nil {
		t.Error("PublishAt accepted version 0")
	}
	smallCloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions[:2], 4, netmodel.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PublishAt(SnapshotFromCloud(smallCloud), 99); err == nil {
		t.Error("PublishAt accepted a snapshot with a different site count")
	}
}
