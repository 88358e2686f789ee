package service

import (
	"encoding/binary"
	"math"
	"testing"
)

// checkPacked packs edges, unpacks the bytes and fails unless the list
// comes back bit for bit in the same order, nil as nil and empty as
// empty and non-nil, in an exact-size array, from an exact-size string.
func checkPacked(t *testing.T, edges []Edge) []byte {
	t.Helper()
	b := packEdges(edges)
	if cap(b) != len(b) {
		t.Fatalf("%d edges packed into %d bytes of a %d-byte array", len(edges), len(b), cap(b))
	}
	got := unpackEdges(b)
	if (got == nil) != (edges == nil) || len(got) != len(edges) || cap(got) != len(got) {
		t.Fatalf("packed %d edges (nil %t), unpacked %d (nil %t) of capacity %d",
			len(edges), edges == nil, len(got), got == nil, cap(got))
	}
	for i, e := range edges {
		g := got[i]
		if g.Src != e.Src || g.Dst != e.Dst ||
			math.Float64bits(g.Volume) != math.Float64bits(e.Volume) || math.Float64bits(g.Msgs) != math.Float64bits(e.Msgs) {
			t.Fatalf("edge %d: packed %+v (bits %#x, %#x), unpacked %+v (bits %#x, %#x)", i,
				e, math.Float64bits(e.Volume), math.Float64bits(e.Msgs),
				g, math.Float64bits(g.Volume), math.Float64bits(g.Msgs))
		}
	}
	return b
}

// packSeeds are the values around each boundary of the packed float and
// endpoint forms.
var packSeeds = []Edge{
	{Src: 0, Dst: 0, Volume: 0, Msgs: math.Copysign(0, -1)},
	{Src: 5, Dst: 3, Volume: math.NaN(), Msgs: math.Float64frombits(0x7ff8_0000_0000_0001)},
	{Src: 2, Dst: 4095, Volume: 1<<53 - 1, Msgs: 1 << 53},
	{Src: 4095, Dst: 0, Volume: 1<<53 + 2, Msgs: -1},
	{Src: math.MaxInt, Dst: math.MinInt, Volume: math.Inf(1), Msgs: -3e6},
	{Src: math.MinInt, Dst: math.MaxInt, Volume: 0.5, Msgs: math.SmallestNonzeroFloat64},
	{Src: -7, Dst: 1 << 40, Volume: 2.5e6, Msgs: 63},
	{Src: 1, Dst: 1, Volume: 64, Msgs: math.MaxFloat64},
}

// TestPackEdgesRoundTrip holds packEdges and unpackEdges to a bit-exact
// round trip on the boundary values, on nil and empty lists and on the
// served shapes, packing in one allocation; and holds the served shapes
// to the sizes they packed to when the format was chosen.
func TestPackEdgesRoundTrip(t *testing.T) {
	checkPacked(t, nil)
	checkPacked(t, []Edge{})
	checkPacked(t, packSeeds)
	for _, c := range []struct {
		procs, most int
	}{
		{512, 18_463},
		{2048, 76_494},
	} {
		edges := benchRequest(c.procs).Edges
		b := checkPacked(t, edges)
		t.Logf("%d edges of benchRequest(%d): %d bytes as []Edge, %d packed", len(edges), c.procs, 32*len(edges), len(b))
		if len(b) > c.most {
			t.Errorf("benchRequest(%d) packs to %d bytes, more than %d", c.procs, len(b), c.most)
		}
		if a := testing.AllocsPerRun(10, func() { packEdges(edges) }); a != 1 {
			t.Errorf("packing benchRequest(%d) made %v allocations, want 1", c.procs, a)
		}
	}
}

// FuzzPackEdgesRoundTrip requires every edge list, over arbitrary
// endpoints and float bits, to come back from packEdges and unpackEdges
// bit for bit, in order and at its exact length. Each edge is 34 bytes of
// input: Src and Dst as int64s, then Volume and Msgs as a mode byte and
// 8 bytes x each, read as the float bits x when the mode is even and as
// the integer int64(x) shifted right by up to 63 bits when it is odd,
// so that whole numbers of every size, negative ones included, occur.
func FuzzPackEdgesRoundTrip(f *testing.F) {
	var seed []byte
	for _, e := range packSeeds {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(e.Src))
		seed = binary.LittleEndian.AppendUint64(seed, uint64(e.Dst))
		for _, v := range []float64{e.Volume, e.Msgs} {
			seed = binary.LittleEndian.AppendUint64(append(seed, 0), math.Float64bits(v))
		}
	}
	f.Add(seed, false)
	f.Add([]byte{}, true)
	f.Add([]byte{}, false)
	float := func(b []byte) float64 {
		x := binary.LittleEndian.Uint64(b[1:])
		if b[0]&1 == 0 {
			return math.Float64frombits(x)
		}
		return float64(int64(x) >> (b[0] >> 1 & 63))
	}
	f.Fuzz(func(t *testing.T, data []byte, null bool) {
		var edges []Edge
		if !null {
			edges = []Edge{}
		}
		for ; len(data) >= 34; data = data[34:] {
			edges = append(edges, Edge{
				Src:    int(int64(binary.LittleEndian.Uint64(data))),
				Dst:    int(int64(binary.LittleEndian.Uint64(data[8:]))),
				Volume: float(data[16:25]),
				Msgs:   float(data[25:34]),
			})
		}
		checkPacked(t, edges)
	})
}

// BenchmarkPackEdges packs benchRequest(512)'s 1,485 edges, as every
// cold explicit-edge solve does when its result is cached, and unpacks
// them, as the re-gauging walk does per entry.
func BenchmarkPackEdges(b *testing.B) {
	edges := benchRequest(512).Edges
	packed := packEdges(edges)
	b.Run("pack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			packEdges(edges)
		}
	})
	b.Run("unpack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			unpackEdges(packed)
		}
	})
}
