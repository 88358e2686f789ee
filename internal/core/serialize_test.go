package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
)

func TestProblemJSONRoundTrip(t *testing.T) {
	p := clusteredProblem(16, 3, 5)
	p.Constraint[3] = 2
	p.Allowed = make([][]int, 16)
	p.Allowed[0] = []int{0, 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != p.N() || got.M() != p.M() {
		t.Fatalf("dimensions changed: %d×%d vs %d×%d", got.N(), got.M(), p.N(), p.M())
	}
	if !reflect.DeepEqual(got.LT, p.LT) || !reflect.DeepEqual(got.BT, p.BT) {
		t.Error("network matrices changed")
	}
	if !got.Constraint.Equal(p.Constraint) {
		t.Error("constraints changed")
	}
	if len(got.Allowed[0]) != 2 {
		t.Error("allowed sets changed")
	}
	// Totals accumulate in a different edge order after the round trip, so
	// compare within floating-point slack; individual edges are exact.
	if math.Abs(got.Comm.TotalVolume()-p.Comm.TotalVolume()) > 1e-6 ||
		math.Abs(got.Comm.TotalMsgs()-p.Comm.TotalMsgs()) > 1e-9 {
		t.Error("communication pattern changed")
	}
	if edgeTo(got.Comm, 0, 1) != edgeTo(p.Comm, 0, 1) {
		t.Error("edge (0,1) changed")
	}
	// Costs agree on an arbitrary placement.
	pl := Placement{0, 1, 2, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 0}
	if a, b := p.Cost(pl), got.Cost(pl); a != b {
		t.Errorf("cost changed across round trip: %v vs %v", a, b)
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		"",
		"{",
		`{"n":0,"m":2}`,
		`{"n":2,"m":1,"edges":[{"src":0,"dst":5,"volume":1,"msgs":1}],"lt":[[1]],"bt":[[1]],"pc":[{}],"capacity":[2],"constraint":[-1,-1]}`,
		`{"n":2,"m":1,"edges":[{"src":0,"dst":1,"volume":-1,"msgs":1}],"lt":[[1]],"bt":[[1]],"pc":[{}],"capacity":[2],"constraint":[-1,-1]}`,
		`{"n":2,"m":1,"edges":[],"lt":[[1],[2]],"bt":[[1]],"pc":[{}],"capacity":[2],"constraint":[-1,-1]}`,
		// Valid JSON but invalid problem (capacity too small).
		`{"n":2,"m":1,"edges":[],"lt":[[1]],"bt":[[1]],"pc":[{}],"capacity":[1],"constraint":[-1,-1]}`,
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPlacementJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pl := Placement{0, 1, 2, 1}
	if err := WritePlacementJSON(&buf, "Geo-distributed", 12.5, pl); err != nil {
		t.Fatal(err)
	}
	algo, cost, got, err := ReadPlacementJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if algo != "Geo-distributed" || cost != 12.5 || !got.Equal(pl) {
		t.Errorf("round trip mismatch: %s %v %v", algo, cost, got)
	}
	if _, _, _, err := ReadPlacementJSON(strings.NewReader("nope")); err == nil {
		t.Error("bad placement JSON accepted")
	}
}

// Property: serialization round-trips random problems with identical costs.
func TestQuickProblemJSONRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 4
		m := int(mRaw%3) + 2
		p := clusteredProblem(n, m, seed)
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		pl, err := RandomPlacement(p, stats.NewRand(seed))
		if err != nil {
			return false
		}
		return p.Cost(pl) == got.Cost(pl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// ReadJSON parses a problem previously written with WriteJSON and
// validates it: the round-trip oracle for the writer geomap's -export-*
// flags use.
func ReadJSON(r io.Reader) (*Problem, error) {
	var in problemJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding problem: %w", err)
	}
	if in.N <= 0 || in.M <= 0 {
		return nil, fmt.Errorf("core: problem has n=%d, m=%d", in.N, in.M)
	}
	g := comm.NewGraph(in.N)
	for i, e := range in.Edges {
		if e.Src < 0 || e.Src >= in.N || e.Dst < 0 || e.Dst >= in.N {
			return nil, fmt.Errorf("core: edge %d endpoint out of range", i)
		}
		if e.Volume < 0 || e.Msgs < 0 {
			return nil, fmt.Errorf("core: edge %d has negative traffic", i)
		}
		g.AddTraffic(e.Src, e.Dst, e.Volume, e.Msgs)
	}
	lt, err := mat.From(in.LT)
	if err != nil {
		return nil, fmt.Errorf("core: LT: %w", err)
	}
	bt, err := mat.From(in.BT)
	if err != nil {
		return nil, fmt.Errorf("core: BT: %w", err)
	}
	p := &Problem{
		Comm:       g,
		LT:         lt,
		BT:         bt,
		PC:         in.PC,
		Capacity:   in.Capacity,
		Constraint: in.Constraint,
		Allowed:    in.Allowed,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadPlacementJSON parses a placement written with WritePlacementJSON.
func ReadPlacementJSON(r io.Reader) (algorithm string, cost float64, pl Placement, err error) {
	var in placementJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return "", 0, nil, fmt.Errorf("core: decoding placement: %w", err)
	}
	return in.Algorithm, in.Cost, in.Placement, nil
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

// TestValidateAgreesWithWriteJSON pins that every problem Validate
// admits has a JSON form: a +Inf link, which WriteJSON cannot encode, is
// rejected, and WriteJSON succeeds on valid problems in every jsonCase
// mode, arbitrary bit patterns included.
func TestValidateAgreesWithWriteJSON(t *testing.T) {
	p := twoSiteProblem()
	p.BT.Set(0, 0, math.Inf(1))
	if err := p.WriteJSON(io.Discard); err == nil {
		t.Fatal("WriteJSON encoded a +Inf bandwidth")
	}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted a +Inf bandwidth")
	}
	for seed := int64(1); seed <= 100; seed++ {
		mode := uint8(seed % 8)
		p := jsonCase(seed, 1+int(seed%40), 1+int(seed%6), mode)
		if p.Validate() != nil {
			continue
		}
		if err := p.WriteJSON(io.Discard); err != nil {
			t.Fatalf("seed %d, mode %d: WriteJSON of a valid problem: %v", seed, mode, err)
		}
	}
}

// FuzzProblemJSONRoundTrip requires WriteJSON followed by ReadJSON to
// reproduce a random valid problem bit for bit: N, the frozen rows of the
// communication graph, both link matrices, the coordinates, capacities,
// pins and allowed sets, nil and empty sets kept apart (make fuzz runs
// it). Bit 0 of mode draws traffic and links from arbitrary bit
// patterns, keeping those Validate and AddTraffic admit (subnormals,
// negative zeros and infinite traffic included), rather than round
// values; bit 1 adds pins and bit 2 allowed sets, some of them empty.
// Inputs whose traffic total overflows are not valid problems and are
// skipped.
func FuzzProblemJSONRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint8(0))
	f.Add(int64(2), uint8(20), uint8(4), uint8(7))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint8(33), uint8(5), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n, m, mode uint8) {
		p := jsonCase(seed, 1+int(n%40), 1+int(m%6), mode)
		if err := p.Validate(); err != nil {
			if !math.IsInf(p.Comm.TotalVolume(), 1) && !math.IsInf(p.Comm.TotalMsgs(), 1) {
				t.Fatalf("jsonCase built an invalid problem: %v", err)
			}
			return // the drawn traffic overflowed its total: not a valid problem
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if got.N() != p.N() || got.M() != p.M() {
			t.Fatalf("n×m = %d×%d, want %d×%d", got.N(), got.M(), p.N(), p.M())
		}
		gc, pc := got.Comm.CSR(), p.Comm.CSR()
		if !slices.Equal(gc.OutIdx, pc.OutIdx) || !slices.EqualFunc(gc.Out, pc.Out, func(a, b comm.Edge) bool {
			return a.Peer == b.Peer && sameBits(a.Volume, b.Volume) && sameBits(a.Msgs, b.Msgs)
		}) {
			t.Fatalf("graph rows %v %v, want %v %v", gc.OutIdx, gc.Out, pc.OutIdx, pc.Out)
		}
		for k := 0; k < p.M(); k++ {
			for l := 0; l < p.M(); l++ {
				if !sameBits(got.LT.At(k, l), p.LT.At(k, l)) || !sameBits(got.BT.At(k, l), p.BT.At(k, l)) {
					t.Fatalf("link (%d,%d) = %v, %v; want %v, %v", k, l, got.LT.At(k, l), got.BT.At(k, l), p.LT.At(k, l), p.BT.At(k, l))
				}
			}
			if !sameBits(got.PC[k].Lat, p.PC[k].Lat) || !sameBits(got.PC[k].Lon, p.PC[k].Lon) {
				t.Fatalf("coordinates of site %d = %v, want %v", k, got.PC[k], p.PC[k])
			}
		}
		if !slices.Equal(got.Capacity, p.Capacity) || !slices.Equal(got.Constraint, p.Constraint) {
			t.Fatalf("capacity %v, pins %v; want %v, %v", got.Capacity, got.Constraint, p.Capacity, p.Constraint)
		}
		if (got.Allowed == nil) != (p.Allowed == nil) || len(got.Allowed) != len(p.Allowed) {
			t.Fatalf("allowed sets %v, want %v", got.Allowed, p.Allowed)
		}
		for i := range p.Allowed {
			if (got.Allowed[i] == nil) != (p.Allowed[i] == nil) || !slices.Equal(got.Allowed[i], p.Allowed[i]) {
				t.Fatalf("allowed set of process %d = %#v, want %#v", i, got.Allowed[i], p.Allowed[i])
			}
		}
	})
}

// jsonCase builds a valid problem of n processes on m sites for
// FuzzProblemJSONRoundTrip; see its doc for mode.
func jsonCase(seed int64, n, m int, mode uint8) *Problem {
	rng := stats.NewRand(seed)
	// draw returns a value admit accepts, drawn from arbitrary bits under
	// mode bit 0, else a small multiple of a power of ten.
	draw := func(admit func(float64) bool) float64 {
		for {
			var v float64
			if mode&1 == 0 {
				v = float64(rng.Intn(5)) * math.Pow(10, float64(rng.Intn(13)-3))
			} else {
				v = math.Float64frombits(rng.Uint64())
			}
			if admit(v) {
				return v
			}
		}
	}
	traffic := func(v float64) bool { return v >= 0 } // what AddTraffic admits
	latency := func(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }
	bandwidth := func(v float64) bool { return v > 0 && v <= math.MaxFloat64 }
	g := comm.NewGraph(n)
	for e := rng.Intn(4 * n); e > 0; e-- {
		g.AddTraffic(rng.Intn(n), rng.Intn(n), draw(traffic), draw(traffic))
	}
	lt, bt := mat.NewSquare(m), mat.NewSquare(m)
	pc := make([]geo.LatLon, m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			lt.Set(k, l, draw(latency))
			bt.Set(k, l, draw(bandwidth))
		}
		pc[k] = geo.LatLon{Lat: 180*rng.Float64() - 90, Lon: 360*rng.Float64() - 180}
	}
	// Each process has a home site with room for it, so pins and allowed
	// sets drawn around the home stay feasible.
	capacity := make([]int, m)
	home := make([]int, n)
	for i := range home {
		home[i] = rng.Intn(m)
		capacity[home[i]]++
	}
	for s := range capacity {
		capacity[s] += rng.Intn(3)
		capacity[s] = max(capacity[s], 1)
	}
	constraint := mat.NewIntVec(n, Unconstrained)
	var allowed [][]int
	if mode&4 != 0 {
		allowed = make([][]int, n)
	}
	for i := range home {
		if mode&2 != 0 && rng.Intn(3) == 0 {
			constraint[i] = home[i]
		}
		if allowed == nil {
			continue
		}
		switch rng.Intn(4) {
		case 0: // nil: unrestricted
		case 1:
			allowed[i] = []int{} // empty: unrestricted too
		default:
			set := []int{home[i]}
			for _, s := range rng.Perm(m)[:rng.Intn(m)] {
				if s != home[i] {
					set = append(set, s)
				}
			}
			allowed[i] = set
		}
	}
	return &Problem{Comm: g, LT: lt, BT: bt, PC: pc, Capacity: capacity, Constraint: constraint, Allowed: allowed}
}
