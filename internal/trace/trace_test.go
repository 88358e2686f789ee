package trace

import (
	"testing"
	"testing/quick"

	"geoprocmap/internal/comm"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(3)
	if err := r.Send(0, 1, 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Send(1, 2, 50, 1); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.N() != 3 {
		t.Errorf("Len/N = %d/%d", r.Len(), r.N())
	}
	if r.TotalBytes() != 150 {
		t.Errorf("TotalBytes = %d, want 150", r.TotalBytes())
	}
	ev := r.Events()
	if ev[0].Dst != 1 || ev[1].Bytes != 50 {
		t.Errorf("Events = %v", ev)
	}
}

func TestRecorderErrors(t *testing.T) {
	r := NewRecorder(2)
	cases := []struct {
		src, dst int
		bytes    int64
	}{
		{-1, 0, 1}, {0, 2, 1}, {0, 0, 1}, {0, 1, -5},
	}
	for _, c := range cases {
		if err := r.Send(c.src, c.dst, c.bytes, 0); err == nil {
			t.Errorf("Send(%d,%d,%d) accepted", c.src, c.dst, c.bytes)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRecorder(0) did not panic")
		}
	}()
	NewRecorder(0)
}

func TestMustSendPanics(t *testing.T) {
	r := NewRecorder(2)
	defer func() {
		if recover() == nil {
			t.Error("MustSend(self) did not panic")
		}
	}()
	r.MustSend(1, 1, 10, 0)
}

// ProcessEvents returns the events sent by process src, in order: a
// filter over the recording, which keeps no per-process index
// (CompressAll buckets the events by source itself).
func (r *Recorder) ProcessEvents(src int) []Event {
	var out []Event
	for _, e := range r.events {
		if e.Src == src {
			out = append(out, e)
		}
	}
	return out
}

func TestProcessEvents(t *testing.T) {
	r := NewRecorder(3)
	r.MustSend(0, 1, 10, 0)
	r.MustSend(2, 0, 20, 0)
	r.MustSend(0, 2, 30, 0)
	p0 := r.ProcessEvents(0)
	if len(p0) != 2 || p0[0].Dst != 1 || p0[1].Dst != 2 {
		t.Errorf("ProcessEvents(0) = %v", p0)
	}
	if len(r.ProcessEvents(1)) != 0 {
		t.Error("process 1 should have no events")
	}
}

func TestGraphAggregation(t *testing.T) {
	r := NewRecorder(3)
	r.MustSend(0, 1, 100, 0)
	r.MustSend(0, 1, 200, 0)
	r.MustSend(1, 2, 50, 0)
	g := r.Graph()
	if e := edgeTo(g, 0, 1); e.Volume != 300 || e.Msgs != 2 {
		t.Errorf("CG(0,1), AG(0,1) = %v, %v, want 300, 2", e.Volume, e.Msgs)
	}
	if edgeTo(g, 1, 2).Msgs != 1 || edgeTo(g, 2, 1).Volume != 0 {
		t.Error("aggregation wrong for other pairs")
	}
}

func TestCompressSimpleRepeat(t *testing.T) {
	events := make([]Event, 0, 10)
	for i := 0; i < 10; i++ {
		events = append(events, Event{Src: 0, Dst: 1, Bytes: 64, Tag: 0})
	}
	c := Compress(events)
	if c.Size() != 1 {
		t.Errorf("10 identical events compressed to %d items, want 1: %s", c.Size(), c)
	}
	if c.Items[0].Repeat != 10 {
		t.Errorf("Repeat = %d, want 10", c.Items[0].Repeat)
	}
}

func TestCompressLoopPattern(t *testing.T) {
	// The LU-style pattern: each iteration sends to two neighbors with two
	// message sizes; 50 iterations.
	var events []Event
	for i := 0; i < 50; i++ {
		events = append(events,
			Event{Src: 0, Dst: 1, Bytes: 43 * 1024, Tag: 0},
			Event{Src: 0, Dst: 8, Bytes: 83 * 1024, Tag: 0},
		)
	}
	c := Compress(events)
	if c.RawLen != 100 {
		t.Fatalf("RawLen = %d", c.RawLen)
	}
	if c.Size() > 3 {
		t.Errorf("loop pattern compressed to %d items, want ≤3: %s", c.Size(), c)
	}
	if c.Ratio() < 30 {
		t.Errorf("compression ratio %v, want ≥30", c.Ratio())
	}
}

func TestCompressNestedLoops(t *testing.T) {
	// Outer loop: {A ×3, B} ×20 — the body itself compresses.
	var events []Event
	for i := 0; i < 20; i++ {
		for j := 0; j < 3; j++ {
			events = append(events, Event{Src: 0, Dst: 1, Bytes: 8, Tag: 0})
		}
		events = append(events, Event{Src: 0, Dst: 2, Bytes: 1024, Tag: 0})
	}
	c := Compress(events)
	got := c.Decompress()
	if len(got) != len(events) {
		t.Fatalf("decompressed %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if !eventsEqual(got[i], events[i]) {
			t.Fatalf("event %d mismatch: %v vs %v", i, got[i], events[i])
		}
	}
	if c.Size() > 4 {
		t.Errorf("nested pattern compressed to %d items, want ≤4: %s", c.Size(), c)
	}
}

func TestCompressNoRepetition(t *testing.T) {
	var events []Event
	for i := 0; i < 5; i++ {
		events = append(events, Event{Src: 0, Dst: i + 1, Bytes: int64(i), Tag: 0})
	}
	c := Compress(events)
	if c.Size() != 5 {
		t.Errorf("unique events compressed to %d items, want 5", c.Size())
	}
	if c.Ratio() != 1 {
		t.Errorf("Ratio = %v, want 1", c.Ratio())
	}
}

func TestCompressEmpty(t *testing.T) {
	c := Compress(nil)
	if c.Size() != 0 || len(c.Decompress()) != 0 || c.Ratio() != 1 {
		t.Error("empty trace mishandled")
	}
}

func TestCompressAllAndMeanRatio(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 8; i++ {
		r.MustSend(0, 1, 16, 0)
	}
	r.MustSend(1, 0, 99, 0)
	cs := CompressAll(r)
	if len(cs) != 2 {
		t.Fatalf("CompressAll returned %d traces", len(cs))
	}
	if cs[0].Size() != 1 || cs[1].Size() != 1 {
		t.Errorf("sizes = %d/%d", cs[0].Size(), cs[1].Size())
	}
	if got := MeanRatio(cs); got != (8+1)/2.0 {
		t.Errorf("MeanRatio = %v, want 4.5", got)
	}
	if MeanRatio(nil) != 1 {
		t.Error("MeanRatio(nil) should be 1")
	}
}

func TestCompressedString(t *testing.T) {
	var events []Event
	for i := 0; i < 3; i++ {
		events = append(events, Event{Src: 0, Dst: 7, Bytes: 42, Tag: 0})
	}
	s := Compress(events).String()
	if s != "3×→7 42B" {
		t.Errorf("String = %q", s)
	}
}

// Property: Compress/Decompress round-trips arbitrary event streams.
func TestQuickCompressRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		events := make([]Event, len(raw))
		for i, r := range raw {
			// Small alphabets maximize accidental repetition — the hard case.
			events[i] = Event{Src: 0, Dst: int(r % 4), Bytes: int64(r%3) * 100, Tag: int(r % 2)}
		}
		c := Compress(events)
		got := c.Decompress()
		if len(got) != len(events) {
			return false
		}
		for i := range events {
			if !eventsEqual(got[i], events[i]) {
				return false
			}
		}
		return c.Size() <= len(events) || len(events) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: compression never inflates and periodic streams compress well.
func TestQuickPeriodicCompression(t *testing.T) {
	f := func(periodRaw, repsRaw uint8) bool {
		period := int(periodRaw%6) + 1
		reps := int(repsRaw%20) + 5
		var events []Event
		for r := 0; r < reps; r++ {
			for k := 0; k < period; k++ {
				events = append(events, Event{Src: 0, Dst: k + 1, Bytes: int64(k * 10), Tag: 0})
			}
		}
		c := Compress(events)
		// A periodic stream of `reps` repetitions must compress by at least
		// a factor of reps/2 (the structure may differ from the generator's).
		return c.Ratio() >= float64(reps)/2 && len(c.Decompress()) == len(events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Decompress reconstructs the original event stream: the round-trip
// oracle for Compress.
func (c *Compressed) Decompress() []Event {
	out := make([]Event, 0, c.RawLen)
	return appendItems(out, c.Items)
}

func appendItems(out []Event, items []Item) []Event {
	for _, it := range items {
		for r := 0; r < it.Repeat; r++ {
			if it.Event != nil {
				out = append(out, *it.Event)
			} else {
				out = appendItems(out, it.Body)
			}
		}
	}
	return out
}

// edgeTo returns g's i→j edge, or a zero Edge when i sends nothing to j.
func edgeTo(g *comm.Graph, i, j int) comm.Edge {
	for _, e := range g.Outgoing(i) {
		if e.Peer == j {
			return e
		}
	}
	return comm.Edge{}
}
