// Package calib reproduces the paper's network-calibration component
// (Section 4.2, "Network Calibration"), standing in for SKaMPI's
// Pingpong_Send_Recv benchmark.
//
// For every ordered site pair (k, l) the calibrator picks one instance in
// each site and measures message elapsed times against the cloud model with
// multiplicative measurement noise: the latency estimate LT(k, l) is the
// mean elapsed time of a one-byte message and the bandwidth estimate
// BT(k, l) is derived from the elapsed time of an 8 MB probe (the paper's
// choice — "when the message size is larger than 8 MB, the results are
// stable"). Sampling repeats over several days and is averaged, as the
// paper does; inter-site noise is small (<5%) while intra-site noise is
// relatively larger, matching the paper's observations.
//
// The package also reproduces the paper's overhead accounting: site-pair
// calibration needs M(M−1) probe sessions versus N(N−1) for the
// traditional all-node-pairs approach — 12 minutes versus over 180 days
// for 4 sites × 128 nodes at one minute per session.
package calib

import (
	"fmt"
	"math"

	"geoprocmap/internal/faults"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// Probe constants. probeBytes is the bandwidth probe size (the paper's
// 8 MB). interNoise and intraNoise are the relative std-devs of inter-
// and intra-site measurements: the paper reports <5% inter-site
// variation and notes intra-site variation is larger. probeTimeout is how
// long one probe attempt may take before the calibrator abandons it and
// retries. trimFraction is the fraction of low and high samples discarded
// from each end before averaging — trimmed-mean outlier rejection, so
// transient fault windows cannot skew an estimate that mostly saw a
// healthy link.
const (
	probeBytes   = units.Bytes(8 << 20)
	interNoise   = 0.03
	intraNoise   = 0.10
	probeTimeout = units.Seconds(5)
	trimFraction = 0.1
)

// Options configures a calibration run. Zero values select the defaults
// noted on each field.
type Options struct {
	// Days of repeated measurement (default 3).
	Days int
	// SamplesPerDay per site pair (default 10).
	SamplesPerDay int
	// PairProbeSeconds is the wall time one probe session occupies, used
	// only for overhead accounting (default 60 s, the paper's figure).
	PairProbeSeconds units.Seconds
	// Seed drives the measurement noise.
	Seed int64
	// Faults attaches a fault schedule the probes run against. Probes on a
	// dead link time out and are retried with capped exponential backoff;
	// degraded links inflate the measured elapsed times; ProbeLoss events
	// drop individual probe attempts. nil calibrates a healthy network.
	Faults *faults.Schedule
	// MaxRetries bounds the retry attempts per sample after the first try
	// (default 3). A sample that exhausts its retries is recorded as
	// failed and the site pair is flagged Degraded.
	MaxRetries int
	// Start offsets every probe onto the fault schedule's clock: sample j
	// of each pair fires at Start + j × PairProbeSeconds. The zero value
	// keeps the historical behavior (probing from schedule time 0); the
	// re-gauging loop sets it to "now" so a reduced-budget pass measures
	// the WAN as it currently is, not as it was at boot.
	Start units.Seconds
}

func (o Options) withDefaults() (Options, error) {
	switch {
	case o.Days < 0:
		return o, fmt.Errorf("calib: negative Days %d", o.Days)
	case o.SamplesPerDay < 0:
		return o, fmt.Errorf("calib: negative SamplesPerDay %d", o.SamplesPerDay)
	case o.PairProbeSeconds < 0:
		return o, fmt.Errorf("calib: negative PairProbeSeconds %v", o.PairProbeSeconds)
	case o.MaxRetries < 0:
		return o, fmt.Errorf("calib: negative MaxRetries %d", o.MaxRetries)
	case o.Start < 0:
		return o, fmt.Errorf("calib: negative Start %v", o.Start)
	}
	if o.Days == 0 {
		o.Days = 3
	}
	if o.SamplesPerDay == 0 {
		o.SamplesPerDay = 10
	}
	if o.PairProbeSeconds == 0 { //geolint:ignore floatcmp zero-value Options default sentinel; 0 is exactly representable
		o.PairProbeSeconds = units.Seconds(60)
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	return o, nil
}

// Result holds the calibrated matrices and the overhead accounting.
type Result struct {
	// LT and BT are the estimated latency (s) and bandwidth (bytes/s)
	// matrices, in the cloud's site order.
	LT, BT *mat.Matrix
	// Variation(k, l) is the coefficient of variation (stddev/mean) of the
	// bandwidth-probe samples for the site pair — the stability statistic
	// the paper reports ("generally with small variation (smaller than
	// 5%)", intra-site relatively larger).
	Variation *mat.Matrix
	// SamplesPerPair is Days × SamplesPerDay.
	SamplesPerPair int
	// SitePairSessions is the number of ordered inter-site probe sessions
	// (M(M−1)); intra-site probes piggyback on the same sessions.
	SitePairSessions int
	// OverheadSeconds is SitePairSessions × PairProbeSeconds plus
	// RetrySeconds — the retry-aware accounting of what calibration
	// actually cost under faults.
	OverheadSeconds units.Seconds
	// Degraded(k, l) is 1 when at least one sample for the pair was
	// abandoned after exhausting its retries, so the pair's estimates rest
	// on fewer samples than requested (a fully unreachable pair falls back
	// to the timeout bound: LT = 5 s, the probe timeout, and BT = the 8 MB
	// probe over that timeout).
	Degraded *mat.Matrix
	// Unreachable(k, l) is 1 when every sample for the pair was abandoned —
	// the probes never saw the link up, so LT/BT carry only the timeout
	// fallback. The re-gauging loop uses full rows of unreachable pairs to
	// infer dead sites; Degraded is the weaker "some samples lost" flag.
	Unreachable *mat.Matrix
	// Retries counts probe attempts beyond each sample's first try.
	Retries int
	// FailedSamples counts samples abandoned after MaxRetries.
	FailedSamples int
	// RetrySeconds is the wall time spent on timed-out attempts and their
	// backoff waits.
	RetrySeconds units.Seconds
}

// DegradedPairs lists the site pairs flagged in Degraded, row-major.
func (r *Result) DegradedPairs() [][2]int {
	if r.Degraded == nil {
		return nil
	}
	var out [][2]int
	m := r.Degraded.Rows()
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if r.Degraded.At(k, l) > 0 {
				out = append(out, [2]int{k, l})
			}
		}
	}
	return out
}

// Calibrate measures the cloud's LT/BT matrices through noisy ping-pong
// probes and returns averaged estimates. With Options.Faults set the probes
// run against the fault schedule — sample j of every pair fires at schedule
// time j × PairProbeSeconds — timing out on dead links, retrying with
// capped exponential backoff (jittered from the calibration RNG, so runs
// stay seed-deterministic), and rejecting outliers with a trimmed mean.
func Calibrate(cloud *netmodel.Cloud, opt Options) (*Result, error) {
	if cloud == nil {
		return nil, fmt.Errorf("calib: nil cloud")
	}
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.Days < 1 || o.SamplesPerDay < 1 {
		return nil, fmt.Errorf("calib: need at least one day and one sample per day")
	}
	m := cloud.M()
	rng := stats.NewRand(o.Seed)
	lt := mat.NewSquare(m)
	bt := mat.NewSquare(m)
	variation := mat.NewSquare(m)
	degraded := mat.NewSquare(m)
	unreachable := mat.NewSquare(m)
	res := &Result{
		LT:          lt,
		BT:          bt,
		Variation:   variation,
		Degraded:    degraded,
		Unreachable: unreachable,
	}
	samples := o.Days * o.SamplesPerDay
	latSamples := make([]float64, 0, samples)
	probes := make([]float64, 0, samples)
	var sm stats.Scratch // one trimmed-mean sort buffer for all m² pairs
	sm.Prewarm(samples)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			noise := interNoise
			if k == l {
				noise = intraNoise
			}
			trueLat := cloud.Latency(k, l)
			trueBW := cloud.Bandwidth(k, l)
			latSamples = latSamples[:0]
			probes = probes[:0]
			pairFailed := 0
			for s := 0; s < samples; s++ {
				lat1, latP, ok := probePair(k, l, o.Start+o.PairProbeSeconds.Scale(float64(s)), trueLat, trueBW, noise, o, rng, res)
				if !ok {
					pairFailed++
					continue
				}
				latSamples = append(latSamples, lat1.Float())
				probes = append(probes, latP.Float())
			}
			res.FailedSamples += pairFailed
			if pairFailed > 0 {
				degraded.Set(k, l, 1)
			}
			if len(probes) == 0 {
				// The pair never answered: the timeout is the only bound
				// the calibrator observed. Downstream consumers must treat
				// the pair as unreliable via the Degraded flag.
				unreachable.Set(k, l, 1)
				lt.Set(k, l, probeTimeout.Float())
				bt.Set(k, l, probeBytes.Per(probeTimeout).Float())
				continue
			}
			latEst := sm.TrimmedMean(latSamples, trimFraction)
			probeMean := sm.TrimmedMean(probes, trimFraction)
			transfer := probeMean - latEst
			if transfer <= 0 {
				// Noise swallowed the transfer time; fall back to the raw
				// probe elapsed time (bandwidth slightly underestimated).
				transfer = probeMean
			}
			lt.Set(k, l, latEst)
			bt.Set(k, l, probeBytes.Float()/transfer)
			if probeMean > 0 {
				variation.Set(k, l, stats.StdDev(probes)/probeMean)
			}
		}
	}
	sessions := m * (m - 1)
	res.SamplesPerPair = samples
	res.SitePairSessions = sessions
	res.OverheadSeconds = o.PairProbeSeconds.Scale(float64(sessions)) + res.RetrySeconds
	return res, nil
}

// probePair runs one sample — first try plus up to MaxRetries backoff-spaced
// retries — for site pair (k, l) at schedule time t0. It returns the
// measured one-byte and probe elapsed times, or ok=false when the sample
// exhausted its retries. Retry accounting accumulates into res.
func probePair(k, l int, t0 units.Seconds, trueLat units.Seconds, trueBW units.BytesPerSec, noise float64, o Options, rng interface {
	NormFloat64() float64
	Float64() float64
}, res *Result) (lat1, latP units.Seconds, ok bool) {
	t := t0
	for attempt := 0; ; attempt++ {
		st := o.Faults.Link(k, l, t.Float())
		failed := false
		switch {
		case st.Down:
			// The ping never returns; the probe burns its full timeout.
			failed = true
		case st.LossProb > 0 && rng.Float64() < st.LossProb:
			failed = true
		default:
			effLat := trueLat.Scale(st.LatFactor)
			effBW := trueBW.Scale(st.BWFactor)
			lat1 = elapsed(units.Bytes(1), effLat, effBW, noise, rng)
			latP = elapsed(probeBytes, effLat, effBW, noise, rng)
			if latP > probeTimeout {
				// Too degraded to finish in time — indistinguishable from
				// a dead link at the probe's vantage point.
				failed = true
			}
		}
		if !failed {
			return lat1, latP, true
		}
		if attempt >= o.MaxRetries {
			return 0, 0, false
		}
		wait := probeTimeout + faults.Backoff(attempt, faults.DefaultBackoffBase, faults.DefaultBackoffCap, nil)
		// Jitter the retry spacing (±25%) so repeated probes do not
		// synchronize with periodic fault windows.
		wait = wait.Scale(1 + 0.25*(2*rng.Float64()-1))
		res.Retries++
		res.RetrySeconds += wait
		t += wait
	}
}

// elapsed models one ping-pong sample: the α–β time with multiplicative
// noise, truncated so a measurement never goes nonpositive.
func elapsed(bytes units.Bytes, lat units.Seconds, bw units.BytesPerSec, noise float64, rng interface{ NormFloat64() float64 }) units.Seconds {
	t := netmodel.TransferTime(bytes, lat, bw)
	factor := 1 + noise*rng.NormFloat64()
	if factor < 0.1 {
		factor = 0.1
	}
	return t.Scale(factor)
}

// RelativeErrors compares the calibration against the cloud's ground truth
// and returns the mean relative error of the latency and bandwidth
// estimates.
func (r *Result) RelativeErrors(cloud *netmodel.Cloud) (latErr, bwErr float64) {
	m := cloud.M()
	var ls, bs float64
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			ls += math.Abs(r.LT.At(k, l)-cloud.LT.At(k, l)) / cloud.LT.At(k, l)
			bs += math.Abs(r.BT.At(k, l)-cloud.BT.At(k, l)) / cloud.BT.At(k, l)
		}
	}
	n := float64(m * m)
	return ls / n, bs / n
}

// AllPairsOverheadSeconds is the traditional approach's cost: probing every
// ordered node pair at pairProbeSeconds each (the paper's comparison:
// 4 sites × 128 nodes at one minute per pair takes over 180 days).
func AllPairsOverheadSeconds(totalNodes int, pairProbeSeconds units.Seconds) units.Seconds {
	if totalNodes < 2 {
		return 0
	}
	return pairProbeSeconds.Scale(float64(totalNodes) * float64(totalNodes-1))
}
