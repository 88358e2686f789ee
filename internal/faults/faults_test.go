package faults

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestEventWindows(t *testing.T) {
	e := Event{Kind: LinkDown, Start: 5, End: 10, Src: 0, Dst: 1}
	for _, tc := range []struct {
		t    float64
		want bool
	}{{4.9, false}, {5, true}, {9.9, true}, {10, false}} {
		if got := e.covers(tc.t); got != tc.want {
			t.Errorf("covers(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	open := Event{Kind: SiteOutage, Start: 3, Site: 0}
	if !open.covers(1e9) {
		t.Error("open-ended event should cover any later time")
	}
	if open.covers(2.9) {
		t.Error("open-ended event active before its start")
	}
}

func TestLinkStateFolding(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: BandwidthDegrade, Start: 0, End: 100, Src: 0, Dst: 1, Factor: 0.5},
		{Kind: BandwidthDegrade, Start: 0, End: 100, Src: Wildcard, Dst: Wildcard, Factor: 0.8},
		{Kind: LatencySpike, Start: 0, End: 100, Src: 0, Dst: 1, Factor: 2},
		{Kind: LatencySpike, Start: 0, End: 100, Src: 0, Dst: 1, Factor: 1.5},
		{Kind: ProbeLoss, Start: 0, End: 100, Src: Wildcard, Dst: Wildcard, Probability: 0.1},
	}}
	st := s.Link(0, 1, 50)
	if st.Down {
		t.Error("link unexpectedly down")
	}
	if math.Abs(st.BWFactor-0.4) > 1e-12 {
		t.Errorf("BWFactor = %v, want 0.4 (degradations multiply)", st.BWFactor)
	}
	if st.LatFactor != 2 {
		t.Errorf("LatFactor = %v, want max spike 2", st.LatFactor)
	}
	if st.LossProb != 0.1 {
		t.Errorf("LossProb = %v, want 0.1", st.LossProb)
	}
	// Intra-site links are immune to wildcard WAN events.
	intra := s.Link(1, 1, 50)
	if intra.Down || intra.BWFactor != 1 || intra.LossProb != 0 {
		t.Errorf("intra-site state affected by WAN events: %+v", intra)
	}
}

func TestSiteOutageDownsAllLinks(t *testing.T) {
	s := &Schedule{Events: []Event{{Kind: SiteOutage, Start: 10, End: 20, Site: 2}}}
	if !s.Link(2, 0, 15).Down || !s.Link(0, 2, 15).Down || !s.Link(2, 2, 15).Down {
		t.Error("site outage should take down every link touching the site")
	}
	if s.Link(0, 1, 15).Down {
		t.Error("outage leaked onto an unrelated link")
	}
	if s.Link(2, 2, 25).Down || s.Link(1, 1, 15).Down {
		t.Error("outage window wrong")
	}
}

func TestNextLinkRecovery(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: LinkDown, Start: 0, End: 10, Src: 0, Dst: 1},
		{Kind: LinkDown, Start: 8, End: 15, Src: 0, Dst: 1}, // overlapping chain
		{Kind: SiteOutage, Start: 100, Site: 1},             // open-ended
	}}
	if got := s.NextLinkRecovery(0, 1, 5); got != 15 {
		t.Errorf("recovery from chained outages = %v, want 15", got)
	}
	if got := s.NextLinkRecovery(0, 1, 20); got != 20 {
		t.Errorf("healthy link recovery = %v, want immediate", got)
	}
	if got := s.NextLinkRecovery(0, 1, 120); !math.IsInf(got, 1) {
		t.Errorf("open-ended outage recovery = %v, want +Inf", got)
	}
	if got := s.NextLinkRecovery(2, 3, 5); got != 5 {
		t.Errorf("unrelated link recovery = %v, want immediate", got)
	}
}

func TestSummary(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: SiteOutage, Start: 10, End: 20, Site: 1},
		{Kind: LinkDown, Start: 5, End: 8, Src: 2, Dst: 0},
	}}
	dead, degraded := s.Summary(3, 0, 30)
	if !reflect.DeepEqual(dead, []int{1}) {
		t.Errorf("dead sites = %v, want [1]", dead)
	}
	if !reflect.DeepEqual(degraded, [][2]int{{2, 0}}) {
		t.Errorf("degraded pairs = %v, want [[2 0]]", degraded)
	}
	// A window before any event sees nothing.
	dead, degraded = s.Summary(3, 0, 4)
	if len(dead) != 0 || len(degraded) != 0 {
		t.Errorf("summary of quiet window = %v, %v", dead, degraded)
	}
}

func TestPresetsDeterministicAndValid(t *testing.T) {
	for _, name := range PresetNames() {
		a, err := Preset(name, 4, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Preset(name, 4, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different schedules", name)
		}
		if err := a.Validate(4); err != nil {
			t.Errorf("%s: preset does not validate: %v", name, err)
		}
		if len(a.Events) == 0 {
			t.Errorf("%s: preset is empty", name)
		}
		c, err := Preset(name, 4, 43)
		if err != nil {
			t.Fatal(err)
		}
		if name != "DiurnalDrift" && reflect.DeepEqual(a.Events, c.Events) {
			t.Errorf("%s: different seeds produced identical event lists", name)
		}
	}
	if _, err := Preset("nosuch", 4, 1); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := Preset("FlakyWAN", 0, 1); err == nil {
		t.Error("zero-site preset accepted")
	}
}

func TestSiteBlackoutShape(t *testing.T) {
	s := SiteBlackout(4, 7)
	if len(s.Events) != 1 || s.Events[0].Kind != SiteOutage {
		t.Fatalf("blackout events = %+v", s.Events)
	}
	site := s.Events[0].Site
	if site < 0 || site >= 4 {
		t.Errorf("blackout site %d out of range", site)
	}
	if !s.Link(site, site, BlackoutStart+1).Down || s.Link(site, site, BlackoutStart-1).Down {
		t.Error("blackout window wrong")
	}
	if got := s.NextLinkRecovery(site, (site+1)%4, BlackoutStart+1); !math.IsInf(got, 1) {
		t.Error("blackout should never recover")
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []Event{
		{Kind: SiteOutage, Site: 9},
		{Kind: LinkDown, Src: -2, Dst: 0},
		{Kind: BandwidthDegrade, Src: 0, Dst: 1, Factor: 0},
		{Kind: BandwidthDegrade, Src: 0, Dst: 1, Factor: 1.5},
		{Kind: LatencySpike, Src: 0, Dst: 1, Factor: 0.5},
		{Kind: ProbeLoss, Src: 0, Dst: 1, Probability: 1},
		{Kind: "volcano"},
		{Kind: LinkDown, Src: 0, Dst: 1, Start: -3},
	}
	for i, e := range cases {
		s := &Schedule{Events: []Event{e}}
		if err := s.Validate(4); err == nil {
			t.Errorf("case %d (%+v): bad event accepted", i, e)
		}
	}
	var nilSched *Schedule
	if err := nilSched.Validate(4); err != nil {
		t.Errorf("nil schedule should validate: %v", err)
	}
}

func TestJSONRoundTripAndLoad(t *testing.T) {
	s := FlakyWAN(4, 11)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Error("JSON round trip changed the schedule")
	}

	path := filepath.Join(t.TempDir(), "sched.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "FlakyWAN" {
		t.Errorf("loaded name %q", loaded.Name)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json"), 4); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := ParseJSON([]byte("{not json"), 4); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestFromSpec(t *testing.T) {
	s, err := FromSpec("siteblackout", 4, 5)
	if err != nil || s.Name != "SiteBlackout" {
		t.Fatalf("FromSpec preset: %v, %v", s, err)
	}
	if s, err := FromSpec("", 4, 5); s != nil || err != nil {
		t.Errorf("empty spec should be a nil schedule, got %v, %v", s, err)
	}
	if _, err := FromSpec("no-such-preset-or-file", 4, 5); err == nil {
		t.Error("bogus spec accepted")
	}
	path := filepath.Join(t.TempDir(), "s.json")
	data, _ := json.Marshal(DiurnalDrift(4, 9))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = FromSpec(path, 4, 5)
	if err != nil || s.Name != "DiurnalDrift" {
		t.Fatalf("FromSpec file: %v, %v", s, err)
	}
}

func TestBackoff(t *testing.T) {
	if d := Backoff(0, 1, 30, nil); d != 1 {
		t.Errorf("Backoff(0) = %v, want base", d)
	}
	if d := Backoff(3, 1, 30, nil); d != 8 {
		t.Errorf("Backoff(3) = %v, want 8", d)
	}
	if d := Backoff(10, 1, 30, nil); d != 30 {
		t.Errorf("Backoff(10) = %v, want cap 30", d)
	}
	if d := Backoff(2, 0, 0, nil); d != DefaultBackoffBase*4 {
		t.Errorf("default-parameter backoff = %v", d)
	}
	if got := BackoffTotal(3, 1, 30); got != 1+2+4 {
		t.Errorf("BackoffTotal(3) = %v, want 7", got)
	}
	if got := AttemptsForWait(6.5, 1, 30); got != 3 {
		t.Errorf("AttemptsForWait(6.5) = %d, want 3 (1+2+4 ≥ 6.5)", got)
	}
	if got := AttemptsForWait(0, 1, 30); got != 0 {
		t.Errorf("AttemptsForWait(0) = %d, want 0", got)
	}
}

func TestHash01DeterministicAndUniform(t *testing.T) {
	a := Hash01(42, 1, 2, 3)
	b := Hash01(42, 1, 2, 3)
	if a != b {
		t.Error("Hash01 not deterministic")
	}
	if Hash01(42, 1, 2, 3) == Hash01(43, 1, 2, 3) {
		t.Error("seed does not change the draw")
	}
	// Crude uniformity: mean of many draws near 0.5.
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := Hash01(7, int64(i))
		if v < 0 || v >= 1 {
			t.Fatalf("Hash01 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Hash01 mean %v, want ≈0.5", mean)
	}
}

func TestAttempts(t *testing.T) {
	if got := Attempts(1, 2, 0, 8); got != 1 {
		t.Errorf("zero loss should take 1 attempt, got %d", got)
	}
	if got := Attempts(1, 2, 0.999, 4); got != 4 {
		t.Errorf("near-certain loss should hit the cap, got %d", got)
	}
	if a, b := Attempts(5, 9, 0.5, 8), Attempts(5, 9, 0.5, 8); a != b {
		t.Error("Attempts not deterministic")
	}
	// Expected attempts under p=0.5 ≈ 2; check the empirical mean is sane.
	var sum int
	const n = 2000
	for i := 0; i < n; i++ {
		sum += Attempts(11, int64(i), 0.5, 16)
	}
	mean := float64(sum) / n
	if mean < 1.7 || mean > 2.3 {
		t.Errorf("mean attempts under p=0.5 is %v, want ≈2", mean)
	}
}

func TestReportEmptyAndString(t *testing.T) {
	a := &Report{Schedule: "X", Messages: 5, Retries: 1, Dropped: 2, BlockedSeconds: 3, DeadSites: []int{1, 2}, DegradedPairs: [][2]int{{0, 1}, {1, 0}}}
	if a.Empty() {
		t.Error("non-trivial report claims to be empty")
	}
	if !(&Report{Schedule: "quiet", Messages: 9}).Empty() {
		t.Error("fault-free report should be empty")
	}
	if s := a.String(); s == "" {
		t.Error("empty String()")
	}
	var nilRep *Report
	if !nilRep.Empty() || nilRep.String() == "" {
		t.Error("nil report helpers")
	}
}
