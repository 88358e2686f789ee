package comm

import (
	"math"
	"testing"
)

// FuzzFoldMatchesUnfolded builds one call stream twice, into a graph
// whose call log folds and into one whose log never does, and requires
// bit-identical rows and totals, each equal to a left fold of the
// stream's calls per pair. The stream is a pattern of calls over 2 to 4
// processes repeated reps+1 times, so the log outgrows its pairs and
// folds, with volumes and counts drawn from zeros, −0 and non-integers
// whose sums depend on their order.
func FuzzFoldMatchesUnfolded(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint8(0))
	f.Add([]byte{2, 0x13, 0x45, 0x21, 0x98, 0x3a, 0x7f}, uint8(40))
	f.Add([]byte{1, 0x11, 0x11, 0x10, 0x01, 0x56, 0x65}, uint8(200))
	f.Add([]byte{2, 0x0c, 0xc0, 0x2b, 0xe4, 0x0d, 0x1f, 0x9a, 0x3c, 0x48}, uint8(255))
	volumes := [16]float64{0, math.Copysign(0, -1), 1, 0.1, 0.2, 0.3, 1e16, 1e-3,
		3.3333333333333335, 2.5e-7, 7e15 + 0.5, 43 * 1024, 1.0 / 3, 6.02e23, 5e-324, 12345.678}
	msgs := [8]float64{0, math.Copysign(0, -1), 1, 0.5, 1.1, 3, 1e-9, 0.7}
	f.Fuzz(func(t *testing.T, raw []byte, reps uint8) {
		if len(raw) == 0 || len(raw) > 257 {
			return
		}
		n := 2 + int(raw[0]%3)
		folded, unfolded := NewGraph(n), NewGraph(n)
		unfolded.foldAt = math.MaxInt
		type pair struct{ src, dst int }
		ref := map[pair]*Edge{}
		var totalVolume, totalMsgs float64
		kept := 0
		for r := 0; r <= int(reps); r++ {
			for k, b := range raw[1:] {
				src, dst := int(b)%n, (int(b)/n+k)%n
				vol, cnt := volumes[(int(b)+r)%16], msgs[(int(b)>>4+k)%8]
				folded.AddTraffic(src, dst, vol, cnt)
				unfolded.AddTraffic(src, dst, vol, cnt)
				if src == dst || (vol == 0 && cnt == 0) {
					continue
				}
				kept++
				e := ref[pair{src, dst}]
				if e == nil {
					e = &Edge{Peer: dst}
					ref[pair{src, dst}] = e
				}
				e.Volume += vol
				e.Msgs += cnt
				totalVolume += vol
				totalMsgs += cnt
			}
		}
		if kept > foldSlack*n && len(folded.log.calls) == kept {
			t.Fatalf("%d calls over %d processes never folded", kept, n)
		}
		for _, g := range []*Graph{folded, unfolded} {
			if math.Float64bits(g.TotalVolume()) != math.Float64bits(totalVolume) ||
				math.Float64bits(g.TotalMsgs()) != math.Float64bits(totalMsgs) {
				t.Fatalf("totals %v/%v, left fold %v/%v", g.TotalVolume(), g.TotalMsgs(), totalVolume, totalMsgs)
			}
		}
		for i := 0; i < n; i++ {
			var want []Edge
			for j := 0; j < n; j++ {
				if e := ref[pair{i, j}]; e != nil {
					want = append(want, *e)
				}
			}
			if !equalEdges(folded.Outgoing(i), want) || !equalEdges(unfolded.Outgoing(i), want) {
				t.Fatalf("process %d: folded row %v, unfolded row %v, left fold %v", i, folded.Outgoing(i), unfolded.Outgoing(i), want)
			}
			if !equalEdges(incoming(folded, i), incoming(unfolded, i)) {
				t.Fatalf("process %d: folded in row %v, unfolded %v", i, incoming(folded, i), incoming(unfolded, i))
			}
		}
	})
}
