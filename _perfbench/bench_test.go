package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestP99NeedsThousandSamples(t *testing.T) {
	xs := make([]float64, minTailSamples-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := p99(xs); ok {
		t.Fatalf("p99 reported from %d samples", len(xs))
	}
	xs = append(xs, float64(len(xs)))
	got, ok := p99(xs)
	if !ok {
		t.Fatalf("p99 omitted at %d samples", len(xs))
	}
	if want := 0.99 * 999; got != want {
		t.Fatalf("p99 = %v, want %v", got, want)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	cloud, err := servedCloud()
	if err != nil {
		t.Fatal(err)
	}
	base := model{LT: rows(cloud.LT), BT: rows(cloud.BT)}
	gen := map[string]func(seed int64) (*serveInput, error){
		"serve-hit":   func(s int64) (*serveInput, error) { return hitInput(s, 500) },
		"serve-miss":  func(s int64) (*serveInput, error) { return missInput(s, 500, 4) },
		"serve-churn": func(s int64) (*serveInput, error) { return churnInput(s, 4, base) },
	}
	encode := func(in *serveInput) []byte {
		var b bytes.Buffer
		for i := range in.stream {
			b.Write(in.bodies[in.stream[i]])
			b.WriteByte('\n')
		}
		for _, d := range in.drifts {
			drifts, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(drifts)
		}
		return b.Bytes()
	}
	for name, g := range gen {
		a, err := g(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := g(8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(a), encode(b)) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		if bytes.Equal(encode(a), encode(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
	la, lb := newLargeInput(7), newLargeInput(7)
	if len(la.src) != len(lb.src) || la.volume[len(la.volume)-1] != lb.volume[len(lb.volume)-1] {
		t.Errorf("multilevel instance: seed 7 gave two different instances")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 25, End: 60}, // overlaps a by 5
		{ID: 4, Parent: 3, Name: "c", Start: 40, End: 50},
	}
	got := selfTimes(spans)
	want := []time.Duration{50, 20, 25, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricJSON, specs []metricSpec) {
		if len(got) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(specs))
			return
		}
		for i, s := range specs {
			if want := (metricJSON{s.name, s.unit, s.better}); got[i] != want {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, got[i], want)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for name := range workloads {
		code = append(code, name)
	}
	sort.Strings(names)
	sort.Strings(code)
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the code runs %v", names, code)
	}
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks the printed result: correct, every metric named as in the
// tables, and the same placement digest with and without tracing.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// serve-churn runs long enough to publish one drifted snapshot.
	seconds := map[string]string{"serve-hit": "0.5", "serve-miss": "0.5", "serve-churn": "3.2"}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			var digests []string
			for _, trace := range []string{"0", "1"} {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", seconds[name], "--trace", trace, "--spans", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("trace %s: exit %d\n%s%s", trace, code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("trace %s: last line is not a result: %v", trace, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("trace %s: result %+v", trace, res)
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				for _, s := range specs {
					v, ok := res.Metrics[s.name]
					if !ok {
						t.Errorf("trace %s: %s not printed", trace, s.name)
					}
					if ok && v.Unit != s.unit {
						t.Errorf("trace %s: %s unit %q, want %q", trace, s.name, v.Unit, s.unit)
					}
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("trace %s: %d metrics printed, %d named", trace, len(res.Metrics), len(specs))
				}
				digests = append(digests, lines[len(lines)-2])
			}
			if digests[0] != digests[1] {
				t.Errorf("untraced %q, traced %q", digests[0], digests[1])
			}
		})
	}
}
