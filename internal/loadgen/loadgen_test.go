package loadgen

import (
	"reflect"
	"strings"
	"testing"

	"geoprocmap/internal/service"
)

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    [3]float64
		wantErr bool
	}{
		{in: "0.70,0.20,0.10", want: [3]float64{0.7, 0.2, 0.1}},
		{in: " 0.2, 0.8 ,0", want: [3]float64{0.2, 0.8, 0}},
		{in: "1,0,0", want: [3]float64{1, 0, 0}},
		{in: "0.3334,0.3333,0.3333", want: [3]float64{0.3334, 0.3333, 0.3333}},
		{in: "NaN,0.5,0.5", wantErr: true},
		{in: "0.5,nan,0.5", wantErr: true},
		{in: "+Inf,0,0", wantErr: true},
		{in: "Inf,-Inf,0", wantErr: true},
		{in: "0.5,0.5,-Inf", wantErr: true},
		{in: "-0.1,0.6,0.5", wantErr: true},
		{in: "0.5,0.5", wantErr: true},
		{in: "0.25,0.25,0.25,0.25", wantErr: true},
		{in: "", wantErr: true},
		{in: "0.5,0.5,x", wantErr: true},
		{in: "0.5,0.5,0.5", wantErr: true},
		{in: "0.3,0.3,0.3", wantErr: true},
		{in: "0,0,0", wantErr: true},
	} {
		got, err := ParseMix(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseMix(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseMix(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// testOptions is a small stream touching all three request kinds.
func testOptions() *Options {
	return &Options{
		Requests: 60, Concurrency: 1, Mix: [3]float64{0.5, 0.3, 0.2},
		App: "LU", Procs: 16, Sites: 4, Pool: 4, Seed: 7,
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	o := testOptions()
	a, b := Stream(o), Stream(o)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two streams from one seed differ")
	}
	var cached, novel, pinned int
	for _, r := range a {
		switch {
		case r.Constraint != nil:
			pinned++
		case r.Seed >= o.Seed+1000:
			novel++
		default:
			cached++
		}
	}
	if cached == 0 || novel == 0 || pinned == 0 {
		t.Errorf("stream has %d cached, %d novel, %d constrained requests; want all three kinds", cached, novel, pinned)
	}
	o.Seed++
	if reflect.DeepEqual(a, Stream(o)) {
		t.Error("streams from seeds 7 and 8 are identical")
	}
}

func TestHashTargetsAreRingOwners(t *testing.T) {
	urls := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	reqs := Stream(testOptions())
	// A trailing slash and a missing scheme name the same fleet.
	targets, err := Targets("127.0.0.1:1,http://127.0.0.1:2/,http://127.0.0.1:3", "hash", reqs)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := service.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{}
	for i := range reqs {
		want := ring.Owner(service.RoutingKey(&reqs[i]))
		if targets[i] != want {
			t.Fatalf("request %d routed to %s, its owner is %s", i, targets[i], want)
		}
		owners[want] = true
	}
	if len(owners) < 2 {
		t.Errorf("hash routing used %d of 3 daemons", len(owners))
	}
}

func TestRoundRobinTargetsCycle(t *testing.T) {
	urls := []string{"http://a:1", "http://b:2", "http://c:3"}
	reqs := Stream(testOptions())
	targets, err := Targets(strings.Join(urls, ","), "rr", reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range targets {
		if want := urls[i%len(urls)]; got != want {
			t.Fatalf("request %d routed to %s, want %s", i, got, want)
		}
	}
	single, err := Targets("b:2/", "rr", reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range single {
		if got != "http://b:2" {
			t.Fatalf("one-URL request %d routed to %s", i, got)
		}
	}
	if _, err := Targets(strings.Join(urls, ","), "random", reqs); err == nil {
		t.Error("unknown routing policy accepted")
	}
	// A trailing slash names the same daemon, so each list repeats one.
	for _, policy := range []string{"rr", "hash"} {
		if _, err := Targets("http://a:1,http://b:2,http://a:1/", policy, reqs); err == nil {
			t.Errorf("duplicate daemon URL accepted under %s", policy)
		}
	}
}
