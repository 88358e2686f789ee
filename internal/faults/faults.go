// Package faults is the deterministic WAN fault-injection layer: a
// Schedule of timed fault events — site outages, link downs, bandwidth
// degradation, latency spikes, probe/packet loss — that the network
// simulator (internal/netsim), the calibrator (internal/calib), and the
// failure-aware remapper (core.Remap) all consult.
//
// The paper treats the WAN as static once calibrated, but its own Table 2
// measurements show geo-distributed bandwidth drifting at runtime and
// links failing outright; a mapping that was optimal at calibration time
// can silently become the worst one. This package makes that drift a
// first-class, reproducible input: every schedule is a plain value, every
// stochastic element (loss draws, preset window placement) flows through
// either a seeded *rand.Rand at construction time or the stateless Hash01
// draw at query time, so two runs with the same seed and schedule are
// byte-identical — and a shared Simulator stays free of data races because
// queries never mutate anything.
//
// Schedules come from three sources: the presets (FlakyWAN, SiteBlackout,
// DiurnalDrift), a JSON file, or literal construction. FromSpec resolves a
// command-line "-faults" argument into whichever of the first two applies.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"geoprocmap/internal/stats"
)

// Kind enumerates the fault event types.
type Kind string

const (
	// SiteOutage takes a whole site down: every link touching it — and
	// every process on it — is unreachable for the event window.
	SiteOutage Kind = "site-outage"
	// LinkDown takes one directed site-pair link down.
	LinkDown Kind = "link-down"
	// BandwidthDegrade multiplies a link's bandwidth by Factor (0 < Factor ≤ 1).
	BandwidthDegrade Kind = "bandwidth-degrade"
	// LatencySpike multiplies a link's latency by Factor (Factor ≥ 1).
	LatencySpike Kind = "latency-spike"
	// ProbeLoss drops each transmission attempt on a link independently
	// with the given Probability.
	ProbeLoss Kind = "probe-loss"
)

// Wildcard matches any site in an event's Src/Dst field.
const Wildcard = -1

// Event is one timed fault. The window is [Start, End) in simulation
// seconds; End ≤ Start (including the zero value) means open-ended.
type Event struct {
	Kind  Kind    `json:"kind"`
	Start float64 `json:"start"`
	End   float64 `json:"end,omitempty"`
	// Site is the affected site for SiteOutage events.
	Site int `json:"site,omitempty"`
	// Src and Dst select the directed link for link-scoped events;
	// Wildcard (-1) matches any site.
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`
	// Factor is the bandwidth multiplier (BandwidthDegrade) or latency
	// multiplier (LatencySpike).
	Factor float64 `json:"factor,omitempty"`
	// Probability is the per-attempt loss probability (ProbeLoss).
	Probability float64 `json:"probability,omitempty"`
}

// openEnded reports whether the event never ends.
func (e Event) openEnded() bool { return e.End <= e.Start }

// covers reports whether the event is active at time t.
func (e Event) covers(t float64) bool {
	return t >= e.Start && (e.openEnded() || t < e.End)
}

// matchesLink reports whether a link-scoped event applies to the directed
// pair (k, l).
func (e Event) matchesLink(k, l int) bool {
	return (e.Src == Wildcard || e.Src == k) && (e.Dst == Wildcard || e.Dst == l)
}

// Schedule is a named, seeded set of fault events. The zero value (or nil)
// is a fault-free schedule.
type Schedule struct {
	// Name identifies the schedule in reports ("FlakyWAN", a file path, …).
	Name string `json:"name"`
	// Seed drives the stateless per-message loss draws (Hash01) and, for
	// presets, the window placement chosen at construction.
	Seed int64 `json:"seed"`
	// Events are the timed faults; order is irrelevant.
	Events []Event `json:"events"`
}

// Validate checks the schedule against a deployment of m sites.
func (s *Schedule) Validate(m int) error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		switch e.Kind {
		case SiteOutage:
			if e.Site < 0 || e.Site >= m {
				return fmt.Errorf("faults: event %d: site %d out of range [0,%d)", i, e.Site, m)
			}
		case LinkDown, BandwidthDegrade, LatencySpike, ProbeLoss:
			for _, s := range []int{e.Src, e.Dst} {
				if s != Wildcard && (s < 0 || s >= m) {
					return fmt.Errorf("faults: event %d: endpoint %d out of range [0,%d)", i, s, m)
				}
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %q", i, e.Kind)
		}
		switch e.Kind {
		case BandwidthDegrade:
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("faults: event %d: bandwidth factor %v outside (0,1]", i, e.Factor)
			}
		case LatencySpike:
			if e.Factor < 1 {
				return fmt.Errorf("faults: event %d: latency factor %v below 1", i, e.Factor)
			}
		case ProbeLoss:
			if e.Probability < 0 || e.Probability >= 1 {
				return fmt.Errorf("faults: event %d: loss probability %v outside [0,1)", i, e.Probability)
			}
		}
		if e.Start < 0 {
			return fmt.Errorf("faults: event %d: negative start %v", i, e.Start)
		}
	}
	return nil
}

// Empty reports whether the schedule injects no faults.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// LinkState is the effective condition of one directed site-pair link at a
// point in time.
type LinkState struct {
	// Down is true when the link is unusable: a LinkDown covers it or
	// either endpoint site is in outage.
	Down bool
	// BWFactor multiplies the link's bandwidth (product of active
	// degradations; 1 when none).
	BWFactor float64
	// LatFactor multiplies the link's latency (max of active spikes; 1
	// when none).
	LatFactor float64
	// LossProb is the per-attempt loss probability (max of active events).
	LossProb float64
}

// SiteDown reports whether site k is in outage at time t.
func (s *Schedule) SiteDown(k int, t float64) bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == SiteOutage && e.Site == k && e.covers(t) {
			return true
		}
	}
	return false
}

// Link returns the state of the directed link (k, l) at time t, folding in
// endpoint site outages. Intra-site "links" (k == l) are affected by a site
// outage of k but not by link-scoped wildcard events, which model the WAN.
// A nil schedule answers a healthy link without a call, so the simulator's
// fault-aware engines pay no events walk on a healthy network.
func (s *Schedule) Link(k, l int, t float64) LinkState {
	if s == nil {
		return LinkState{BWFactor: 1, LatFactor: 1}
	}
	return s.link(k, l, t)
}

// link is Link's events walk on a non-nil schedule.
func (s *Schedule) link(k, l int, t float64) LinkState {
	st := LinkState{BWFactor: 1, LatFactor: 1}
	for _, e := range s.Events {
		if !e.covers(t) {
			continue
		}
		switch e.Kind {
		case SiteOutage:
			if e.Site == k || e.Site == l {
				st.Down = true
			}
		case LinkDown:
			if k != l && e.matchesLink(k, l) {
				st.Down = true
			}
		case BandwidthDegrade:
			if k != l && e.matchesLink(k, l) {
				st.BWFactor *= e.Factor
			}
		case LatencySpike:
			if k != l && e.matchesLink(k, l) && e.Factor > st.LatFactor {
				st.LatFactor = e.Factor
			}
		case ProbeLoss:
			if k != l && e.matchesLink(k, l) && e.Probability > st.LossProb {
				st.LossProb = e.Probability
			}
		}
	}
	return st
}

// NextLinkRecovery returns the earliest time ≥ t at which the directed link
// (k, l) is not down, or +Inf when it never recovers (an open-ended outage
// covers it). Overlapping and back-to-back outage windows are chased to
// their joint end.
func (s *Schedule) NextLinkRecovery(k, l int, t float64) float64 {
	if s == nil {
		return t
	}
	r := t
	// Each pass either leaves r fixed (recovered) or advances it past the
	// end of a covering outage; at most one advance per event suffices.
	for pass := 0; pass <= len(s.Events); pass++ {
		advanced := false
		for _, e := range s.Events {
			down := (e.Kind == SiteOutage && (e.Site == k || e.Site == l)) ||
				(e.Kind == LinkDown && k != l && e.matchesLink(k, l))
			if !down || !e.covers(r) {
				continue
			}
			if e.openEnded() {
				return math.Inf(1)
			}
			if e.End > r {
				r = e.End
				advanced = true
			}
		}
		if !advanced {
			return r
		}
	}
	return r
}

// Summary reports which of the m sites were ever in outage and which
// directed site pairs saw any degradation (link down, bandwidth loss,
// latency spike, or packet loss) during [t0, t1]. It drives the DeadSites
// and DegradedPairs fields of a Report.
func (s *Schedule) Summary(m int, t0, t1 float64) (deadSites []int, degradedPairs [][2]int) {
	if s == nil {
		return nil, nil
	}
	overlaps := func(e Event) bool {
		return e.Start <= t1 && (e.openEnded() || e.End > t0)
	}
	dead := map[int]bool{}
	deg := map[[2]int]bool{}
	for _, e := range s.Events {
		if !overlaps(e) {
			continue
		}
		switch e.Kind {
		case SiteOutage:
			if e.Site >= 0 && e.Site < m {
				dead[e.Site] = true
			}
		case LinkDown, BandwidthDegrade, LatencySpike, ProbeLoss:
			for k := 0; k < m; k++ {
				for l := 0; l < m; l++ {
					if k != l && e.matchesLink(k, l) {
						deg[[2]int{k, l}] = true
					}
				}
			}
		}
	}
	for k := range dead {
		deadSites = append(deadSites, k)
	}
	sort.Ints(deadSites)
	for p := range deg {
		degradedPairs = append(degradedPairs, p)
	}
	sort.Slice(degradedPairs, func(i, j int) bool {
		if degradedPairs[i][0] != degradedPairs[j][0] {
			return degradedPairs[i][0] < degradedPairs[j][0]
		}
		return degradedPairs[i][1] < degradedPairs[j][1]
	})
	return deadSites, degradedPairs
}

// --- presets --------------------------------------------------------------

// PresetNames lists the built-in schedules accepted by Preset and FromSpec.
func PresetNames() []string { return []string{"FlakyWAN", "SiteBlackout", "DiurnalDrift"} }

// Preset builds a named preset for a deployment of m sites. Names are
// case-insensitive.
func Preset(name string, m int, seed int64) (*Schedule, error) {
	if m < 1 {
		return nil, fmt.Errorf("faults: preset for %d sites", m)
	}
	switch strings.ToLower(name) {
	case "flakywan":
		return FlakyWAN(m, seed), nil
	case "siteblackout":
		return SiteBlackout(m, seed), nil
	case "diurnaldrift":
		return DiurnalDrift(m, seed), nil
	}
	return nil, fmt.Errorf("faults: unknown preset %q (known: %v)", name, PresetNames())
}

// FlakyWAN models an unreliable WAN: every cross-site link loses 5% of
// transmission attempts, and a handful of seeded short outage and
// degradation windows (5–20 s, within the first 120 s) hit random directed
// pairs. Same m and seed ⇒ identical schedule.
func FlakyWAN(m int, seed int64) *Schedule {
	s := &Schedule{Name: "FlakyWAN", Seed: seed}
	s.Events = append(s.Events, Event{Kind: ProbeLoss, Src: Wildcard, Dst: Wildcard, Probability: 0.05})
	rng := stats.NewRand(seed ^ 0x666c616b79) // "flaky"
	windows := 2 * m
	for w := 0; w < windows; w++ {
		k := rng.Intn(m)
		l := rng.Intn(m)
		if k == l {
			l = (l + 1) % m
		}
		if m == 1 {
			break
		}
		start := rng.Float64() * 120
		dur := 5 + rng.Float64()*15
		if w%2 == 0 {
			// Hard flap: both directions down.
			s.Events = append(s.Events,
				Event{Kind: LinkDown, Start: start, End: start + dur, Src: k, Dst: l},
				Event{Kind: LinkDown, Start: start, End: start + dur, Src: l, Dst: k})
		} else {
			// Soft flap: the pair drops to 40% bandwidth with doubled latency.
			s.Events = append(s.Events,
				Event{Kind: BandwidthDegrade, Start: start, End: start + dur, Src: k, Dst: l, Factor: 0.4},
				Event{Kind: LatencySpike, Start: start, End: start + dur, Src: k, Dst: l, Factor: 2})
		}
	}
	return s
}

// BlackoutStart is when the SiteBlackout preset's outage begins: late
// enough that calibration and the first communication phases see a healthy
// network, so the stale-vs-remapped comparison is meaningful.
const BlackoutStart = 3.0

// SiteBlackout models a permanent regional failure: one seeded-random site
// goes dark at BlackoutStart seconds and never recovers.
func SiteBlackout(m int, seed int64) *Schedule {
	rng := stats.NewRand(seed ^ 0x626c61636b) // "black"
	return &Schedule{
		Name: "SiteBlackout",
		Seed: seed,
		Events: []Event{
			{Kind: SiteOutage, Start: BlackoutStart, Site: rng.Intn(m)},
		},
	}
}

// DiurnalDrift models the paper's Table 2 observation that WAN bandwidth
// drifts over the day, compressed so one "day" lasts 240 simulated
// seconds. Congestion follows the sun: each site's cross links (both
// directions) collapse to 45% bandwidth and 1.8× latency during that
// region's staggered local business window, on top of a mild global
// off-peak dip early in each cycle. The peak rotating around the regions
// is what distinguishes drift from uniform scaling — at any moment some
// region is the wrong place to be, and which one changes over the day.
func DiurnalDrift(m int, seed int64) *Schedule {
	s := &Schedule{Name: "DiurnalDrift", Seed: seed}
	rng := stats.NewRand(seed ^ 0x6472696674) // "drift"
	const period = 240.0
	stagger := period / float64(m)
	for cycle := 0; cycle < 4; cycle++ {
		base := float64(cycle) * period
		// Early off-peak: a mild global dip (all cross links), too small to
		// count as drift on its own.
		mild := 0.90 * (1 + 0.05*(2*rng.Float64()-1))
		if mild > 1 {
			mild = 1
		}
		s.Events = append(s.Events, Event{
			Kind: BandwidthDegrade, Start: base, End: base + stagger,
			Src: Wildcard, Dst: Wildcard, Factor: mild,
		})
		for site := 0; site < m; site++ {
			// Site-local peak window, ±5% seeded wobble so cycles are not
			// carbon copies. Both directions of every cross link touching
			// the peaking region degrade together.
			start := base + float64(site)*stagger
			bw := 0.45 * (1 + 0.05*(2*rng.Float64()-1))
			if bw > 1 {
				bw = 1
			}
			for _, dir := range []struct{ src, dst int }{{site, Wildcard}, {Wildcard, site}} {
				s.Events = append(s.Events,
					Event{
						Kind: BandwidthDegrade, Start: start, End: start + stagger,
						Src: dir.src, Dst: dir.dst, Factor: bw,
					},
					Event{
						Kind: LatencySpike, Start: start, End: start + stagger,
						Src: dir.src, Dst: dir.dst, Factor: 1.8,
					})
			}
		}
	}
	return s
}

// --- JSON and spec resolution --------------------------------------------

// ParseJSON decodes a schedule from JSON and validates it against m sites.
func ParseJSON(data []byte, m int) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("faults: parsing schedule: %w", err)
	}
	if err := s.Validate(m); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a JSON schedule from disk.
func LoadFile(path string, m int) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	s, err := ParseJSON(data, m)
	if err != nil {
		return nil, err
	}
	if s.Name == "" {
		s.Name = path
	}
	return s, nil
}

// FromSpec resolves a command-line fault spec: a preset name (see
// PresetNames, case-insensitive) or a path to a JSON schedule file. Presets
// get the supplied seed; file schedules keep their own seed field.
func FromSpec(spec string, m int, seed int64) (*Schedule, error) {
	if spec == "" {
		return nil, nil
	}
	if s, err := Preset(spec, m, seed); err == nil {
		return s, nil
	} else if _, statErr := os.Stat(spec); statErr != nil {
		// Neither a preset nor a readable file: surface the preset error,
		// which lists the valid names.
		return nil, err
	}
	return LoadFile(spec, m)
}
