package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/stats"
)

// checkDecodeAgrees fails unless decodeRequest and the stdlib decoder
// accept or reject body alike, with equal values or equal error text.
func checkDecodeAgrees(t *testing.T, body []byte) (MapRequest, bool) {
	t.Helper()
	got, _, gotErr := decodeRequest(body)
	want, wantErr := decodeStdlib(body)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("body %q: error %v, stdlib error %v", body, gotErr, wantErr)
	case wantErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("body %q: error %q, stdlib error %q", body, gotErr, wantErr)
	case wantErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("body %q: decoded %+v, stdlib decoded %+v", body, got, want)
	}
	return got, wantErr == nil
}

// decodeCases are bodies on both sides of the canonical subset. The fuzz
// corpus under testdata/fuzz/FuzzDecodeRequestMatchesStdlib holds the
// same bodies.
var decodeCases = []struct {
	name      string
	body      string
	canonical bool
}{
	{"preset", `{"workload":"LU","procs":64,"iters":3,"kappa":4,"seed":7,"deadline_ms":500}`, true},
	{"pinned", `{"workload":"K-means","procs":4,"constraint":[2,-1,-1,0],"algorithm":"multilevel","seed":-3}`, true},
	{"allowed", `{"workload":"DNN","procs":3,"allowed":[[1,2],[],[0,1,2,3]],"algorithm":"greedy"}`, true},
	{"edges", `{"procs":4,"edges":[{"src":0,"dst":1,"volume":3456789.123456789,"msgs":20},{"src":2,"dst":3,"volume":2.5e-7,"msgs":0}],"seed":1}`, true},
	{"near-halfway volumes", `{"procs":3,"edges":[{"src":0,"dst":1,"volume":4503599627370497.5,"msgs":9007199254740993},{"src":1,"dst":2,"volume":4503599627370496.5,"msgs":0.30000000000000004},{"src":2,"dst":0,"volume":2251799813685248.25,"msgs":12345678901234567}]}`, true},
	{"outer whitespace", " {\n\t\"procs\" : 2 ,\r\n \"edges\" : [ {\"src\":0,\"dst\":1,\"volume\":-0,\"msgs\":1E2} ] } \n", true},
	{"whitespace", " {\n\t\"procs\" : 2 ,\r\n \"edges\" : [ { \"src\" : 0 , \"dst\" : 1 , \"volume\" : -0 , \"msgs\" : 1E2 } ] } \n", false},
	{"negative src", `{"procs":2,"edges":[{"src":-1,"dst":1,"volume":1,"msgs":1}]}`, false},
	{"edge keys out of order", `{"procs":2,"edges":[{"src":0,"dst":1,"volume":1,"msgs":1},{"dst":0,"src":1,"msgs":2,"volume":3}]}`, false},
	{"edge whitespace", `{"procs":2,"edges":[{"src":0,"dst":1,"volume":1,"msgs":1 },{"src":1, "dst":0,"volume":2,"msgs":2}]}`, false},
	{"long index", `{"procs":2,"edges":[{"src":1000000000000000000,"dst":0,"volume":1,"msgs":1}]}`, false},
	{"empty arrays", `{"edges":[],"constraint":[],"allowed":[]}`, true},
	{"empty object", `{}`, true},
	{"null", `null`, false},
	{"null field", `{"procs":4,"edges":null}`, false},
	{"key case", `{"Workload":"LU","procs":8}`, false},
	{"duplicate key", `{"workload":"LU","procs":8,"procs":16}`, false},
	{"duplicate edge key", `{"procs":2,"edges":[{"src":0,"src":1,"dst":0}]}`, false},
	{"unknown key", `{"workload":"LU","procs":8,"extra":1}`, false},
	{"unknown edge key", `{"procs":2,"edges":[{"src":0,"dst":1,"weight":1}]}`, false},
	{"escape", `{"workload":"L\u0055","procs":8}`, false},
	{"escaped key", `{"work\u006coad":"LU","procs":8}`, false},
	{"non-ASCII", `{"workload":"LÜ","procs":8}`, false},
	{"invalid UTF-8", "{\"algorithm\":\"geo\xff\",\"procs\":8}", false},
	{"integer fraction", `{"workload":"LU","procs":8.0}`, false},
	{"integer exponent", `{"workload":"LU","procs":8e0}`, false},
	{"integer overflow", `{"workload":"LU","procs":8,"seed":9223372036854775808}`, false},
	{"float out of range", `{"procs":2,"edges":[{"src":0,"dst":1,"volume":1e400,"msgs":1}]}`, false},
	{"trailing bytes", `{"workload":"LU","procs":8} {"procs":9}`, false},
	{"leading zero", `{"workload":"LU","procs":08}`, false},
	{"src leading zero", `{"procs":2,"edges":[{"src":01,"dst":1,"volume":1,"msgs":1}]}`, false},
	{"string for number", `{"workload":"LU","procs":"8"}`, false},
	{"truncated", `{"procs":4,"edges":[{"src":0,"dst":1,"volume":1e6,"ms`, false},
	{"empty body", ``, false},
}

func TestDecodeRequestSubset(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			p := parser{b: []byte(c.body)}
			var req MapRequest
			if got := p.request(&req); got != c.canonical {
				t.Errorf("canonical parser took the body: %v, want %v", got, c.canonical)
			}
			checkDecodeAgrees(t, []byte(c.body))
		})
	}
	// What json.Marshal writes for a request is canonical, unless a
	// string needs an escape.
	pinned := MapRequest{
		Workload: "K-means", Procs: 3, Iters: 2, Constraint: []int{1, -1, 0}, Allowed: [][]int{{}, {0, 3}, {2}},
		Algorithm: "multilevel", Kappa: 2, Seed: -1 << 63, DeadlineMillis: 1<<63 - 1,
	}
	for _, r := range []MapRequest{benchRequest(16), benchRequest(512), pinned, {}} {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := parser{b: body}
		var req MapRequest
		if !p.request(&req) || !reflect.DeepEqual(req, r) {
			t.Errorf("marshalled request %.80s… not decoded by the canonical parser", body)
		}
	}
}

// TestDecodeRequestByteEdits checks every one-byte insertion into and
// replacement within each case encoding/json accepts: the bodies nearest
// the edge of the subset, which random fuzzing reaches only by chance.
func TestDecodeRequestByteEdits(t *testing.T) {
	for _, c := range decodeCases {
		if _, err := decodeStdlib([]byte(c.body)); err != nil {
			continue
		}
		b := []byte(c.body)
		for i := 0; i <= len(b); i++ {
			for v := 0; v < 256; v++ {
				edit := []byte{byte(v)}
				checkDecodeAgrees(t, slices.Concat(b[:i], edit, b[i:]))
				if i < len(b) {
					checkDecodeAgrees(t, slices.Concat(b[:i], edit, b[i+1:]))
				}
			}
		}
	}
}

// TestMapRejectsOversizedBody checks that a body over maxBodyBytes is
// rejected even when its first JSON value ends well inside the limit.
func TestMapRejectsOversizedBody(t *testing.T) {
	srv := newTestServer(t, Config{})
	body := `{"workload":"LU","procs":8,"seed":1}` + strings.Repeat(" ", maxBodyBytes)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/map", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Errorf("status %d, body %s; want 400 naming the size limit", rec.Code, rec.Body.String())
	}
}

// FuzzDecodeRequestMatchesStdlib requires decodeRequest to agree with the
// stdlib decoder on every body, and every accepted request to pass
// through validate and Problem on a 4-site snapshot without panicking.
func FuzzDecodeRequestMatchesStdlib(f *testing.F) {
	snap := testSnapshot(f, 64, 1)
	var (
		mu     sync.Mutex
		graphs = map[string]*comm.Graph{}
	)
	graphFor := func(workload string, procs, iters int) (*comm.Graph, error) {
		mu.Lock()
		defer mu.Unlock()
		key := fmt.Sprintf("%s/%d/%d", workload, procs, iters)
		if g, ok := graphs[key]; ok {
			return g, nil
		}
		g, err := profileGraph(workload, procs, iters)
		if err == nil {
			graphs[key] = g
		}
		return g, err
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, ok := checkDecodeAgrees(t, body)
		if !ok || req.validate(96, snap) != nil {
			return
		}
		_, _ = req.Problem(snap, graphFor) // an error is a 422, not a failure
	})
}

// benchRequest is an explicit edge list over n processes in the shape
// of the benchmark's cache-hit bodies: a ring, a stride and a butterfly,
// ≈2.9 edges per process, with seeded volumes.
func benchRequest(n int) MapRequest {
	rng := stats.NewRand(1)
	r := MapRequest{Procs: n, Seed: 1}
	stride := max(n/4, 2)
	for i := 0; i < n; i++ {
		r.Edges = append(r.Edges,
			Edge{Src: i, Dst: (i + 1) % n, Volume: 2e6 * (1 + rng.Float64()), Msgs: 20},
			Edge{Src: i, Dst: (i + stride) % n, Volume: 5e5 * (1 + rng.Float64()), Msgs: 8})
		if j := i ^ 1<<uint(i%10); j < n && j != i {
			r.Edges = append(r.Edges, Edge{Src: i, Dst: j, Volume: 2e5 * (1 + rng.Float64()), Msgs: 4})
		}
	}
	return r
}

// BenchmarkDecodeRequest decodes a 512-process, ~1,480-edge body with the
// stdlib decoder and with decodeRequest's canonical parser.
func BenchmarkDecodeRequest(b *testing.B) {
	body, err := json.Marshal(benchRequest(512))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (MapRequest, error)
	}{
		{"stdlib", decodeStdlib},
		{"canonical", func(body []byte) (MapRequest, error) {
			req, edges, err := decodeRequest(body)
			releaseEdges(edges) // as the handler does once the request is answered
			return req, err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeHit512 answers the 512-process, ~1,480-edge request
// from the cache through Handler, as every serve-hit request is answered
// once warm: read, decode, validate, key, look up and write.
func BenchmarkServeHit512(b *testing.B) {
	srv := newAllocServer(b, 512)
	defer srv.Close()
	h := srv.Handler()
	body := marshal(b, benchRequest(512))
	w := &hitWriter{header: http.Header{}}
	post := func() {
		clear(w.header)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	post() // the miss that caches it
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkFingerprint keys the 512-process request of
// BenchmarkDecodeRequest, as every served request is keyed after its
// decode.
func BenchmarkFingerprint(b *testing.B) {
	req := benchRequest(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchKey = fingerprint(&req, 1)
	}
}

// BenchmarkRequestProblem builds and freezes the graph of the
// 512-process request, as a cache miss does before its solve, and
// releases its rows, as the miss does after.
func BenchmarkRequestProblem(b *testing.B) {
	req := benchRequest(512)
	snap := testSnapshot(b, 512, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := req.Problem(snap, nil)
		if err != nil {
			b.Fatal(err)
		}
		p.Comm.CSR()
		p.Comm.Release()
	}
}

var benchKey string
