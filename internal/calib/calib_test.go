package calib

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"geoprocmap/internal/faults"
	"geoprocmap/internal/netmodel"
)

func TestCalibrateAccuracy(t *testing.T) {
	cloud, err := netmodel.PaperCloud(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Calibrate(cloud, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	latErr, bwErr := res.RelativeErrors(cloud)
	if latErr > 0.08 {
		t.Errorf("mean latency error %.3f, want ≤0.08", latErr)
	}
	if bwErr > 0.12 {
		t.Errorf("mean bandwidth error %.3f, want ≤0.12", bwErr)
	}
	if res.SamplesPerPair != 30 {
		t.Errorf("SamplesPerPair = %d, want 30 (3 days × 10)", res.SamplesPerPair)
	}
}

// The paper's overhead example: 4 sites, 128 nodes per site, one minute
// per probe pair — all-pairs takes over 180 days, site pairs 12 minutes.
func TestOverheadMatchesPaperExample(t *testing.T) {
	cloud, err := netmodel.EvenCloud(netmodel.AmazonEC2, "m4.xlarge", netmodel.PaperEC2Regions, 128, netmodel.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Calibrate(cloud, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SitePairSessions != 12 {
		t.Errorf("SitePairSessions = %d, want 12", res.SitePairSessions)
	}
	if got := res.OverheadSeconds / 60; got != 12 {
		t.Errorf("overhead = %v minutes, want 12", got)
	}
	allPairs := AllPairsOverheadSeconds(cloud.TotalNodes(), 60)
	days := allPairs / 86400
	if days < 180 {
		t.Errorf("all-pairs overhead = %.0f days, paper says over 180", days)
	}
	if res.OverheadSeconds >= allPairs/1000 {
		t.Error("site-pair calibration not dramatically cheaper than all pairs")
	}
}

func TestCalibrateDeterministic(t *testing.T) {
	cloud, err := netmodel.PaperCloud(3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Calibrate(cloud, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(cloud, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.LT, b.LT) || !reflect.DeepEqual(a.BT, b.BT) {
		t.Error("same seed produced different calibrations")
	}
}

func TestCalibrateErrors(t *testing.T) {
	cloud, err := netmodel.PaperCloud(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Calibrate(nil, Options{}); err == nil {
		t.Error("nil cloud accepted")
	}
	if _, err := Calibrate(cloud, Options{Days: -1}); err == nil {
		t.Error("negative days accepted")
	}
	bad := []Options{
		{SamplesPerDay: -1},
		{PairProbeSeconds: -1},
		{MaxRetries: -1},
	}
	for i, o := range bad {
		if _, err := Calibrate(cloud, o); err == nil {
			t.Errorf("bad options %d (%+v) accepted", i, o)
		}
	}
}

func TestMoreSamplingImprovesAccuracy(t *testing.T) {
	cloud, err := netmodel.PaperCloud(5)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Calibrate(cloud, Options{Days: 1, SamplesPerDay: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Calibrate(cloud, Options{Days: 20, SamplesPerDay: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	_, bwSmall := small.RelativeErrors(cloud)
	_, bwBig := big.RelativeErrors(cloud)
	if bwBig >= bwSmall {
		t.Errorf("1000 samples (err %.3f) not better than 1 sample (err %.3f)", bwBig, bwSmall)
	}
}

// Property: calibrated estimates are always positive and latency estimates
// stay within an order of magnitude of the truth for reasonable noise.
func TestQuickCalibrateSane(t *testing.T) {
	cloud, err := netmodel.PaperCloud(2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		res, err := Calibrate(cloud, Options{Seed: seed, Days: 2, SamplesPerDay: 5})
		if err != nil {
			return false
		}
		for k := 0; k < cloud.M(); k++ {
			for l := 0; l < cloud.M(); l++ {
				if res.LT.At(k, l) <= 0 || res.BT.At(k, l) <= 0 {
					return false
				}
				ratio := res.LT.At(k, l) / cloud.LT.At(k, l)
				if ratio < 0.5 || ratio > 2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAllPairsOverheadFormula(t *testing.T) {
	if got := AllPairsOverheadSeconds(2, 60); got != 120 {
		t.Errorf("AllPairsOverheadSeconds(2, 60) = %v, want 120", got)
	}
	if math.Signbit(AllPairsOverheadSeconds(0, 60).Float()) {
		// N=0 gives 0·(−1)·60 = 0; just ensure no negative nonsense leaks.
		t.Error("negative overhead for zero nodes")
	}
}

// The paper: inter-site variation is small (<5%) while intra-site
// variation is relatively larger.
func TestVariationStatistics(t *testing.T) {
	cloud, err := netmodel.PaperCloud(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Calibrate(cloud, Options{Seed: 9, Days: 10, SamplesPerDay: 20})
	if err != nil {
		t.Fatal(err)
	}
	var interMax, intraMin float64 = 0, 1
	for k := 0; k < cloud.M(); k++ {
		for l := 0; l < cloud.M(); l++ {
			v := res.Variation.At(k, l)
			if v <= 0 {
				t.Fatalf("nonpositive variation at (%d,%d)", k, l)
			}
			if k == l {
				if v < intraMin {
					intraMin = v
				}
			} else if v > interMax {
				interMax = v
			}
		}
	}
	if interMax > 0.05 {
		t.Errorf("max inter-site variation %.3f, paper reports <5%%", interMax)
	}
	if intraMin <= interMax {
		t.Errorf("intra-site variation (min %.3f) not above inter-site (max %.3f)", intraMin, interMax)
	}
}

// A site that never answers: every pair touching it exhausts its retries,
// is flagged Degraded, and falls back to the timeout bound, while the
// surviving pairs calibrate as if nothing happened.
func TestCalibrateUnderBlackoutFlagsDegraded(t *testing.T) {
	cloud, err := netmodel.PaperCloud(4)
	if err != nil {
		t.Fatal(err)
	}
	const dead = 1
	sched := &faults.Schedule{Name: "blackout", Events: []faults.Event{
		{Kind: faults.SiteOutage, Start: 0, Site: dead},
	}}
	res, err := Calibrate(cloud, Options{Seed: 4, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := Calibrate(cloud, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < cloud.M(); k++ {
		for l := 0; l < cloud.M(); l++ {
			touches := k == dead || l == dead
			if got := res.Degraded.At(k, l) > 0; got != touches {
				t.Errorf("Degraded(%d,%d) = %v, want %v", k, l, got, touches)
			}
			if touches && res.LT.At(k, l) != 5 {
				t.Errorf("LT(%d,%d) = %v, want the 5 s timeout fallback", k, l, res.LT.At(k, l))
			}
			if !touches {
				// Surviving pairs calibrate at healthy accuracy (the RNG
				// streams diverge, so compare against the truth, not the
				// healthy run bitwise).
				relErr := math.Abs(res.LT.At(k, l)-cloud.LT.At(k, l)) / cloud.LT.At(k, l)
				if relErr > 0.2 {
					t.Errorf("LT(%d,%d) off by %.0f%% on a surviving pair", k, l, 100*relErr)
				}
			}
		}
	}
	if res.Retries == 0 || res.FailedSamples == 0 || res.RetrySeconds <= 0 {
		t.Errorf("no retry accounting: %d retries, %d failed, %.1f s", res.Retries, res.FailedSamples, res.RetrySeconds.Float())
	}
	if res.OverheadSeconds <= healthy.OverheadSeconds {
		t.Error("faulty overhead not above healthy overhead")
	}
	want := [][2]int{}
	for k := 0; k < cloud.M(); k++ {
		for l := 0; l < cloud.M(); l++ {
			if k == dead || l == dead {
				want = append(want, [2]int{k, l})
			}
		}
	}
	got := res.DegradedPairs()
	if len(got) != len(want) {
		t.Errorf("DegradedPairs = %v, want %v", got, want)
	}
}

// A short outage window at the start of the run: the backoff retries walk
// the probe past the window, so no sample is lost and nothing is flagged.
func TestCalibrateRetriesRecoverFromWindow(t *testing.T) {
	cloud, err := netmodel.PaperCloud(4)
	if err != nil {
		t.Fatal(err)
	}
	sched := &faults.Schedule{Name: "window", Events: []faults.Event{
		{Kind: faults.LinkDown, Start: 0, End: 8, Src: 0, Dst: 1},
	}}
	res, err := Calibrate(cloud, Options{Seed: 4, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Error("probe on the downed link never retried")
	}
	if res.FailedSamples != 0 || res.Degraded.At(0, 1) != 0 {
		t.Errorf("recoverable window lost samples: %d failed, Degraded(0,1) = %v",
			res.FailedSamples, res.Degraded.At(0, 1))
	}
	latErr, bwErr := res.RelativeErrors(cloud)
	if latErr > 0.08 || bwErr > 0.12 {
		t.Errorf("errors after recovery lat %.3f bw %.3f, want healthy accuracy", latErr, bwErr)
	}
}

// A latency spike covering one of thirty samples: the trimmed mean discards
// the outlier, keeping the estimates at healthy accuracy.
func TestTrimmedMeanRejectsOutliers(t *testing.T) {
	cloud, err := netmodel.PaperCloud(6)
	if err != nil {
		t.Fatal(err)
	}
	sched := &faults.Schedule{Name: "spike", Events: []faults.Event{
		{Kind: faults.LatencySpike, Start: 0, End: 30, Src: faults.Wildcard, Dst: faults.Wildcard, Factor: 3},
	}}
	res, err := Calibrate(cloud, Options{Seed: 6, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	latErr, _ := res.RelativeErrors(cloud)
	if latErr > 0.1 {
		t.Errorf("latency error %.3f with a trimmed outlier, want ≤0.1", latErr)
	}
	if res.FailedSamples != 0 {
		t.Errorf("%d samples failed under a pure latency spike", res.FailedSamples)
	}
}

func TestCalibrateFaultyDeterministic(t *testing.T) {
	cloud, err := netmodel.PaperCloud(3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Calibrate(cloud, Options{Seed: 7, Faults: faults.FlakyWAN(cloud.M(), 7)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.LT, b.LT) || !reflect.DeepEqual(a.BT, b.BT) {
		t.Error("same seed produced different faulty calibrations")
	}
	if a.Retries != b.Retries || a.FailedSamples != b.FailedSamples ||
		math.Float64bits(a.RetrySeconds.Float()) != math.Float64bits(b.RetrySeconds.Float()) {
		t.Error("same seed produced different retry accounting")
	}
}
