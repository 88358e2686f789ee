package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans stay in
// memory and are written out when the run ends.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Req    int           `json:"req"`    // request id: stream index or template
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Allocs is the heap-allocation delta of the call, where measured.
	Allocs uint64 `json:"allocs,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans. A nil recorder records nothing, so untraced
// and traced runs share every code path except the clock reads here.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// setAllocs attaches an allocation count to span id.
func (r *recorder) setAllocs(id int, n uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Allocs = n
	r.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed like spans.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfByName groups self times by span name, in microseconds.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i].Nanoseconds())/1e3)
	}
	return out
}

// writeSpans writes spans as JSON lines, one span per line with its self
// time, to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i := range spans {
		line := struct {
			span
			Self time.Duration `json:"self_ns"`
		}{spans[i], self[i]}
		if err := enc.Encode(&line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
