package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"geoprocmap/internal/comm"
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
