package service

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// packEdges returns edges as one exact-size byte string, the form in
// which a cached request keeps its edge list (see cacheEntry); it does
// not retain edges, which may be a pooled buffer (see edgePool). The
// layout is the edge count as a uvarint, then per edge in request order
// the zigzag varints of Src minus the previous edge's Src (0 before the
// first) and of Dst minus Src, then Volume and Msgs as packFloat
// writes them. The differences wrap, so every pair of ints comes back.
// A nil list packs to nil and an empty one to its count's single byte,
// so unpackEdges tells them apart. A first pass sizes the string, so the
// pack allocates nothing else.
func packEdges(edges []Edge) []byte {
	if edges == nil {
		return nil
	}
	n, prev := uvarintLen(uint64(len(edges))), 0
	for _, e := range edges {
		n += uvarintLen(zigzag(e.Src-prev)) + uvarintLen(zigzag(e.Dst-e.Src)) + packedFloatLen(e.Volume) + packedFloatLen(e.Msgs)
		prev = e.Src
	}
	b := make([]byte, n)
	k := binary.PutUvarint(b, uint64(len(edges)))
	prev = 0
	for _, e := range edges {
		k += binary.PutVarint(b[k:], int64(e.Src-prev))
		k += binary.PutVarint(b[k:], int64(e.Dst-e.Src))
		k += packFloat(b[k:], e.Volume)
		k += packFloat(b[k:], e.Msgs)
		prev = e.Src
	}
	return b
}

// unpackEdges returns the edge list packEdges packed into b, in a new
// exact-size array: nil for nil, and an empty non-nil list for an empty
// one. b must be packEdges' own output.
func unpackEdges(b []byte) []Edge {
	if b == nil {
		return nil
	}
	n, k := binary.Uvarint(b)
	edges := make([]Edge, n)
	prev := 0
	for i := range edges {
		ds, m := binary.Varint(b[k:])
		k += m
		dd, m := binary.Varint(b[k:])
		k += m
		e := &edges[i]
		e.Src = prev + int(ds)
		e.Dst = e.Src + int(dd)
		e.Volume, k = unpackFloat(b, k)
		e.Msgs, k = unpackFloat(b, k)
		prev = e.Src
	}
	return edges
}

// floatInt returns v as an integer when a uvarint of it doubled holds v
// exactly: v is a whole number in [0, 2^53) and not −0. Profiled traffic
// volumes and message counts are such numbers.
func floatInt(v float64) (uint64, bool) {
	if v >= 0 && v < 1<<53 {
		// int64 converts in one instruction where uint64 branches.
		if u := int64(v); float64(u) == v && (u != 0 || !math.Signbit(v)) {
			return uint64(u), true
		}
	}
	return 0, false
}

// packFloat writes v to b in one of two forms told apart by the low bit
// of the first byte, and returns the bytes written: uvarint(u<<1) when
// floatInt gives u, else the byte 1 followed by the 8 little-endian
// bytes of v's bits.
func packFloat(b []byte, v float64) int {
	if u, ok := floatInt(v); ok {
		return binary.PutUvarint(b, u<<1)
	}
	b[0] = 1
	binary.LittleEndian.PutUint64(b[1:], math.Float64bits(v))
	return 9
}

// packedFloatLen is the number of bytes packFloat writes for v.
func packedFloatLen(v float64) int {
	if u, ok := floatInt(v); ok {
		return uvarintLen(u << 1)
	}
	return 9
}

// unpackFloat reads the float packFloat wrote at b[k:] and returns it
// with the offset past it.
func unpackFloat(b []byte, k int) (float64, int) {
	if b[k]&1 == 1 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b[k+1:])), k + 9
	}
	u, m := binary.Uvarint(b[k:])
	return float64(u >> 1), k + m
}

// zigzag maps x to the unsigned value binary.PutVarint writes for it.
func zigzag(x int) uint64 {
	v := int64(x)
	return uint64(v<<1) ^ uint64(v>>63)
}

// uvarintLen is the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}
