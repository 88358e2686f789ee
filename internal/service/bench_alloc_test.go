package service

import (
	"strconv"
	"testing"
)

// The BenchmarkAlloc* family gates the allocation discipline of the
// //geolint:allocfree float read: make bench-alloc runs it with
// -benchmem and fails on any nonzero allocs/op.

var benchFloat float64

// BenchmarkAllocFloat reads the 4,096 volumes and message counts of an
// edge list in the form json.Marshal writes them, one op per list.
func BenchmarkAllocFloat(b *testing.B) {
	var body []byte
	for k, e := range benchRequest(1400).Edges[:2048] {
		if k > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendFloat(body, e.Volume, 'f', -1, 64)
		body = append(body, ',')
		body = strconv.AppendFloat(body, e.Msgs, 'f', -1, 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := parser{b: body}
		for p.float(&benchFloat) && p.eat(',') {
		}
		if p.i != len(body) {
			b.Fatalf("stopped at byte %d of %d", p.i, len(body))
		}
	}
}
