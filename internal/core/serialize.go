package core

import (
	"encoding/json"
	"io"

	"geoprocmap/internal/geo"
)

// problemJSON is the stable on-disk form of a Problem. The communication
// pattern is stored as an edge list (the matrices are sparse at scale);
// LT/BT are dense M×M row-major slices.
type problemJSON struct {
	N          int          `json:"n"`
	M          int          `json:"m"`
	Edges      []edgeJSON   `json:"edges"`
	LT         [][]float64  `json:"lt"`
	BT         [][]float64  `json:"bt"`
	PC         []geo.LatLon `json:"pc"`
	Capacity   []int        `json:"capacity"`
	Constraint []int        `json:"constraint"`
	Allowed    [][]int      `json:"allowed,omitempty"`
}

type edgeJSON struct {
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Volume float64 `json:"volume"`
	Msgs   float64 `json:"msgs"`
}

// WriteJSON serializes the problem. The instance should be valid; no
// validation is performed here.
func (p *Problem) WriteJSON(w io.Writer) error {
	n, m := p.N(), p.M()
	out := problemJSON{
		N:          n,
		M:          m,
		PC:         p.PC,
		Capacity:   p.Capacity,
		Constraint: p.Constraint,
		Allowed:    p.Allowed,
	}
	for i := 0; i < n; i++ {
		for _, e := range p.Comm.Outgoing(i) {
			out.Edges = append(out.Edges, edgeJSON{Src: i, Dst: e.Peer, Volume: e.Volume, Msgs: e.Msgs})
		}
	}
	out.LT = make([][]float64, m)
	out.BT = make([][]float64, m)
	for k := 0; k < m; k++ {
		out.LT[k] = p.LT.Row(k)
		out.BT[k] = p.BT.Row(k)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// placementJSON is the stable on-disk form of a placement result.
type placementJSON struct {
	Algorithm string  `json:"algorithm"`
	Cost      float64 `json:"cost"`
	Placement []int   `json:"placement"`
}

// WritePlacementJSON serializes a placement with its provenance.
func WritePlacementJSON(w io.Writer, algorithm string, cost float64, pl Placement) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(placementJSON{Algorithm: algorithm, Cost: cost, Placement: pl})
}
