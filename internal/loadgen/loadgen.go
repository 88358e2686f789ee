// Package loadgen is the seeded closed-loop load generator behind
// geoload and the daemon gate tests. A run draws its whole request
// stream up front from one seed: a mix of cached requests (a small pool
// of repeating seeds), novel requests (a unique seed each) and
// constrained requests (a unique seed plus random pins). It routes each
// request to one daemon of a fleet, posts them from concurrent workers,
// retrying 503 pool-shed responses behind capped, jittered exponential
// backoff, and folds the placement digests in request order with
// service.CombinedDigest. Two runs with the same seed against
// equivalent servers must report the same digest, at any fleet size and
// under either routing policy.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"geoprocmap/internal/faults"
	"geoprocmap/internal/service"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// Options describes one run; each field is one of geoload's flags.
type Options struct {
	// URL is a geomapd base URL, or a comma-separated fleet of them.
	URL string
	// Route spreads requests over a fleet: "hash" sends each request to
	// its shard owner on the ring the servers share, "rr" round-robins.
	Route string
	// Requests is the stream length, Concurrency the number of workers.
	Requests, Concurrency int
	// Mix holds the cached, novel and constrained fractions.
	Mix [3]float64
	// App is the workload preset and Procs the processes per request.
	App   string
	Procs int
	// Sites bounds the pins of constrained requests to [0, Sites).
	Sites int
	// Pool is the number of distinct requests in the cached pool.
	Pool int
	Seed int64
	// Timeout bounds each HTTP attempt.
	Timeout time.Duration
	// Retries bounds the retries of one request after 503 responses;
	// RetryBase is the first backoff, doubled per attempt with ±25%
	// jitter and capped at 16×.
	Retries   int
	RetryBase time.Duration
}

// Outcome is one request's result.
type Outcome struct {
	Status  int
	Cached  bool
	Deduped bool
	Retries int
	Digest  string
	// Seconds spans every attempt, the backoff waits included.
	Seconds float64
	Err     error
}

// Failed reports whether the request got no placement.
func (o *Outcome) Failed() bool { return o.Err != nil || o.Status != http.StatusOK }

// Report is a finished run.
type Report struct {
	// Outcomes holds one entry per request, in request order.
	Outcomes []Outcome
	Elapsed  time.Duration
	// OK, Cached and Deduped count answered requests and Failed the
	// rest; Retried counts the 503 retries of all of them.
	OK, Cached, Deduped, Retried, Failed int
	// LatencyMs holds the latencies of the answered requests, sorted.
	LatencyMs []float64
	// Digest is service.CombinedDigest over the answered requests.
	Digest string
}

// ParseMix parses "cached,novel,constrained" fractions: three finite,
// non-negative numbers that sum to 1 within 0.001.
func ParseMix(s string) ([3]float64, error) {
	var fracs [3]float64
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return fracs, fmt.Errorf("-mix needs three comma-separated fractions, got %q", s)
	}
	sum := 0.0
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		// NaN fails every comparison, so only a positive test rejects it.
		if err != nil || !(f >= 0) || math.IsInf(f, 1) {
			return fracs, fmt.Errorf("-mix fraction %q invalid", p)
		}
		fracs[i] = f
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		return fracs, fmt.Errorf("-mix fractions sum to %g, want 1", sum)
	}
	return fracs, nil
}

// Stream returns the run's request stream. It is drawn from one seeded
// source, so worker scheduling cannot change which requests exist, only
// the order in which they reach the servers.
//
//geolint:deterministic
func Stream(o *Options) []service.MapRequest {
	reqs := make([]service.MapRequest, o.Requests)
	rng := stats.NewRand(o.Seed)
	for i := range reqs {
		r := service.MapRequest{Workload: o.App, Procs: o.Procs}
		switch x := rng.Float64(); {
		case x < o.Mix[0]: // cached: draw from a small pool of seeds
			r.Seed = o.Seed + int64(rng.Intn(o.Pool))
		case x < o.Mix[0]+o.Mix[1]: // novel: unique seed
			r.Seed = o.Seed + 1000 + int64(i)
		default: // constrained: unique seed plus random pins
			r.Seed = o.Seed + 2000 + int64(i)
			r.Constraint = make([]int, o.Procs)
			for p := range r.Constraint {
				r.Constraint[p] = -1
			}
			for pinned := 0; pinned < 1+rng.Intn(3); pinned++ {
				r.Constraint[rng.Intn(o.Procs)] = rng.Intn(o.Sites)
			}
		}
		reqs[i] = r
	}
	return reqs
}

// Targets returns each request's daemon: a pure function of the URL
// list, the policy and the stream, whatever the worker timing. One URL
// takes every request. "hash" builds the ring the servers share, so
// each request lands on its shard owner; "rr" round-robins, so most
// requests land on non-owners and take the peer-consult path. A URL
// listed twice is rejected under either policy: round-robin would send
// that daemon twice its share.
//
//geolint:deterministic
func Targets(urlList, policy string, reqs []service.MapRequest) ([]string, error) {
	urls := strings.Split(urlList, ",")
	seen := make(map[string]bool, len(urls))
	for i := range urls {
		urls[i] = service.NormalizePeerURL(urls[i])
		if seen[urls[i]] {
			return nil, fmt.Errorf("duplicate daemon URL %q", urls[i])
		}
		seen[urls[i]] = true
	}
	targets := make([]string, len(reqs))
	if len(urls) == 1 {
		for i := range targets {
			targets[i] = urls[0]
		}
		return targets, nil
	}
	switch policy {
	case "hash":
		ring, err := service.NewRing(urls)
		if err != nil {
			return nil, err
		}
		for i := range reqs {
			targets[i] = ring.Owner(service.RoutingKey(&reqs[i]))
		}
	case "rr":
		for i := range targets {
			targets[i] = urls[i%len(urls)]
		}
	default:
		return nil, fmt.Errorf("-route must be hash or rr, got %q", policy)
	}
	return targets, nil
}

// Run posts the stream from o.Concurrency closed-loop workers and
// tallies the answers.
func Run(o *Options) (*Report, error) {
	if o.Requests < 1 || o.Concurrency < 1 {
		return nil, fmt.Errorf("-n and -c must be positive")
	}
	reqs := Stream(o)
	targets, err := Targets(o.URL, o.Route, reqs)
	if err != nil {
		return nil, err
	}

	rep := &Report{Outcomes: make([]Outcome, len(reqs))}
	client := &http.Client{Timeout: o.Timeout}
	// A connection dialed for a request that then took a pooled one was
	// never used; a server draining waits up to 5 s for such connections,
	// so none are left open past the run.
	defer client.CloseIdleConnections()
	next := make(chan int, o.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		// Jitter draws come from a per-worker source: retry timing may
		// vary run to run, but the digest folds answers in request
		// order, so retried runs keep their digest.
		jitter := stats.NewRand(o.Seed + int64(w))
		go func() {
			defer wg.Done()
			for i := range next {
				rep.Outcomes[i] = post(client, targets[i], &reqs[i], o.Retries, o.RetryBase, jitter)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	rep.Elapsed = time.Since(start)

	digests := make([]string, len(reqs))
	for i := range rep.Outcomes {
		res := &rep.Outcomes[i]
		rep.Retried += res.Retries
		if res.Failed() {
			rep.Failed++
			continue
		}
		rep.OK++
		if res.Cached {
			rep.Cached++
		}
		if res.Deduped {
			rep.Deduped++
		}
		rep.LatencyMs = append(rep.LatencyMs, res.Seconds*1e3)
		digests[i] = res.Digest
	}
	sort.Float64s(rep.LatencyMs)
	rep.Digest = service.CombinedDigest(digests)
	return rep, nil
}

// post issues one mapping request and decodes the pieces the report
// needs. A 503 means the daemon shed the request off a full solve queue
// — transient by construction — so post retries it up to maxRetries
// times behind capped exponential backoff with jitter; any other status
// is final.
func post(client *http.Client, base string, req *service.MapRequest, maxRetries int, retryBase time.Duration, jitter *rand.Rand) (out Outcome) {
	body, err := json.Marshal(req)
	if err != nil {
		out.Err = err
		return
	}
	base503 := units.Seconds(retryBase.Seconds())
	t0 := time.Now()
	defer func() { out.Seconds = time.Since(t0).Seconds() }()
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/map", "application/json", bytes.NewReader(body))
		if err != nil {
			out.Err = err
			return
		}
		out.Status = resp.StatusCode
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close() //geolint:ignore errcheck best-effort close of a response body already read to EOF
		if err != nil {
			out.Err = err
			return
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < maxRetries {
			out.Retries++
			backoff := faults.Backoff(attempt, base503, base503.Scale(16), jitter)
			time.Sleep(time.Duration(backoff.Float() * float64(time.Second)))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return
		}
		var mr service.MapResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			out.Err = err
			return
		}
		out.Cached = mr.Cached
		out.Deduped = mr.Deduped
		out.Digest = mr.Digest
		return
	}
}
