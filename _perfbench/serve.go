package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"geoprocmap/internal/service"
)

// server is one in-process geomapd: service.NewServer with geomapd's
// default pool, queue, cache and deadline, on a loopback listener. Its
// client keeps at most conns connections open.
type server struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startServer(conns int) (*server, error) {
	cloud, err := servedCloud()
	if err != nil {
		return nil, err
	}
	store, err := service.NewStore(service.SnapshotFromCloud(cloud))
	if err != nil {
		return nil, err
	}
	srv, err := service.NewServer(service.Config{Store: store})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serve loop and every handler,
// then drains the solver pool.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv.Close()
	s.client.CloseIdleConnections()
	return err
}

// do sends one request and reads the whole response body.
func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close() // read to EOF; a close error changes nothing
	return resp.StatusCode, data, err
}

func (s *server) metrics() (service.View, error) {
	var v service.View
	status, data, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return v, err
	}
	if status != http.StatusOK {
		return v, fmt.Errorf("/metrics: HTTP %d", status)
	}
	return v, json.Unmarshal(data, &v)
}

// publish posts a drifted model and returns the version the server gave it.
func (s *server) publish(m model) (uint64, error) {
	body, err := json.Marshal(service.SnapshotUpdate{Source: "perfbench-drift", LT: m.LT, BT: m.BT})
	if err != nil {
		return 0, err
	}
	status, data, err := s.do(http.MethodPost, "/admin/snapshot", body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("/admin/snapshot: HTTP %d: %s", status, data)
	}
	var v struct {
		Version uint64 `json:"version"`
	}
	return v.Version, json.Unmarshal(data, &v)
}

// sample is one request of a timed phase. Times are offsets from the
// phase start; due and from are set only in an open loop.
type sample struct {
	// due is when the schedule wanted the request sent; from is where
	// its latency starts: due, or the generator's wake-up when it slept
	// past due (timer overshoot is the generator's, not the service's).
	due, from time.Duration
	sent, end time.Duration
	status    int
	body      []byte
	err       error
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// phase is the record of one timed HTTP phase.
type phase struct {
	samples   []sample // index = stream index; only [0, done) ran
	done      int
	elapsed   time.Duration // phase start to the last response
	publishMs []float64
	late      []float64 // open loop: send lateness in ms
}

// latency of a request: send to last response byte in a closed loop,
// due time (see from) to last byte in an open one.
func (s *sample) latency(open bool) time.Duration {
	if open {
		return s.end - s.from
	}
	return s.end - s.sent
}

// window is the length closed-loop phases are cut into to find their
// faster half.
const window = 500 * time.Millisecond

// timed returns the latencies (ms) of a phase's successful requests and
// their throughput. An open loop counts every request: its tail is a few
// publication convoys, and keeping only its faster epochs more than
// doubled p99's spread over five seeds (0.37 against 0.15). A closed loop
// is cut into windows by completion time and keeps the faster half, the
// windows that completed the most requests.
func timed(in *serveInput, p *phase) (lat []float64, tput float64) {
	ok := okIndices(p)
	if in.open || p.elapsed < 2*window {
		return latenciesMs(in, p, ok), float64(len(ok)) / p.elapsed.Seconds()
	}
	groups := make([][]int, int(p.elapsed/window))
	for _, i := range ok {
		if w := int(p.samples[i].end / window); w < len(groups) {
			groups[w] = append(groups[w], i)
		}
	}
	fast := fasterHalf(groups, func(g []int) float64 { return -float64(len(g)) })
	for _, g := range fast {
		lat = append(lat, latenciesMs(in, p, g)...)
	}
	return lat, float64(len(lat)) / (float64(len(fast)) * window.Seconds())
}

func okIndices(p *phase) []int {
	var out []int
	for i := 0; i < p.done; i++ {
		if p.samples[i].ok() {
			out = append(out, i)
		}
	}
	return out
}

func latenciesMs(in *serveInput, p *phase, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = ms(p.samples[i].latency(in.open))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runPhase replays the input's stream for dur: a closed loop of in.conns
// clients, or an open loop at in.rate over in.conns connections.
func runPhase(s *server, in *serveInput, dur time.Duration, rec *recorder) (*phase, error) {
	if in.open {
		return openLoop(s, in, rec)
	}
	return closedLoop(s, in, dur, rec), nil
}

// send posts stream index i, recording a span when traced.
func send(s *server, in *serveInput, i int, t0 time.Time, out *sample, dedup map[int32][]byte, rec *recorder) {
	id := rec.start("http.map", 0, i)
	out.sent = time.Since(t0)
	t := in.stream[i]
	out.status, out.body, out.err = s.do(http.MethodPost, "/v1/map", in.bodies[t])
	out.end = time.Since(t0)
	rec.end(id)
	// Repeated hits return identical bytes; keep one copy per template so
	// a long hit run holds a few bodies, not thousands.
	if prev, ok := dedup[t]; ok && bytes.Equal(prev, out.body) {
		out.body = prev
	} else if dedup != nil {
		dedup[t] = out.body
	}
}

// closedLoop: each client sends the next stream index as soon as its
// previous response is read, until dur has passed or the stream ends.
func closedLoop(s *server, in *serveInput, dur time.Duration, rec *recorder) *phase {
	p := &phase{samples: make([]sample, len(in.stream))}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := 0; c < in.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dedup := map[int32][]byte{}
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(in.stream) {
					return
				}
				send(s, in, i, t0, &p.samples[i], dedup, rec)
			}
		}()
	}
	wg.Wait()
	p.done = min(int(next.Load()), len(in.stream))
	for i := 0; i < p.done; i++ {
		p.elapsed = max(p.elapsed, p.samples[i].end)
	}
	return p
}

// openLoop sends stream index i at its due time i/rate over at most
// in.conns connections; a request whose connection is busy waits, and
// its latency counts from the due time. At every epoch boundary the loop
// lets the requests in flight finish, publishes the next drifted model,
// and goes on, so each request's snapshot version is fixed by its index.
func openLoop(s *server, in *serveInput, rec *recorder) (*phase, error) {
	p := &phase{samples: make([]sample, len(in.stream))}
	slots := make(chan struct{}, in.conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range in.stream {
		if in.epoch > 0 && i%in.epoch == 0 {
			wg.Wait()
			e := i / in.epoch
			id := rec.start("http.publish", 0, i)
			start := time.Now()
			v, err := s.publish(in.drifts[e])
			p.publishMs = append(p.publishMs, ms(time.Since(start)))
			rec.end(id)
			if err != nil {
				return nil, err
			}
			if v != in.version(i) {
				return nil, fmt.Errorf("publication %d got version %d, want %d", e, v, in.version(i))
			}
		}
		due := time.Duration(float64(i) / in.rate * float64(time.Second))
		from := due
		if wait := time.Until(t0.Add(due)); wait > 0 {
			time.Sleep(wait)
			from = time.Since(t0)
		}
		slots <- struct{}{}
		p.samples[i].due, p.samples[i].from = due, from
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(s, in, i, t0, &p.samples[i], nil, rec)
			<-slots
		}()
	}
	wg.Wait()
	p.done = len(in.stream)
	for i := range p.samples {
		p.elapsed = max(p.elapsed, p.samples[i].end)
		p.late = append(p.late, ms(p.samples[i].sent-p.samples[i].due))
	}
	return p, nil
}

// complete sends, untimed, every check-set index the timed phase did not
// reach, so the check set is the same in every run.
func complete(s *server, in *serveInput, p *phase) {
	t0 := time.Now()
	for i := p.done; i < in.checkN; i++ {
		send(s, in, i, t0, &p.samples[i], nil, nil)
	}
}

// warmUp solves every warm template in turn and checks each answer came
// back 200. One at a time: with concurrent warm-up requests set-up time
// doubled from run to run.
func warmUp(s *server, in *serveInput) error {
	for _, t := range in.warm {
		status, body, err := s.do(http.MethodPost, "/v1/map", in.bodies[t])
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: HTTP %d: %s", t, status, body)
		}
	}
	return nil
}

// healthzFloor returns the median GET /healthz round trip in µs: the
// transport floor under every /v1/map latency.
func healthzFloor(s *server, n int) (float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		status, _, err := s.do(http.MethodGet, "/healthz", nil)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("/healthz: HTTP %d", status)
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us), nil
}
