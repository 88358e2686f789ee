package service

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// decodeRequest decodes a POST /v1/map body. encoding/json with
// DisallowUnknownFields defines what a body means: which bodies are
// accepted, the values they decode to and the error text of the ones
// rejected. Reflection makes that decoder slow on long edge lists, so a
// hand-written pass first tries the canonical form json.Marshal gives a
// MapRequest, and any body outside that subset goes to encoding/json
// unchanged. The subset:
//
//   - one object, with only whitespace after it;
//   - keys spelled exactly as the JSON tags, each at most once per
//     object, with no escapes;
//   - strings of printable ASCII without a backslash;
//   - integers in JSON integer grammar that fit the field, and floats in
//     JSON number grammar that strconv.ParseFloat accepts (the call
//     encoding/json makes, so values match bit for bit);
//   - arrays for edges, constraint and allowed, where an empty array is
//     an empty non-nil slice, as encoding/json makes it.
//
// Everything else falls back: null, keys in another case, duplicate or
// unknown keys, escapes and non-ASCII bytes, integers with a fraction or
// exponent or out of range, floats out of range, and trailing bytes.
// The result shares no memory with body, so the caller may reuse it.
func decodeRequest(body []byte) (MapRequest, error) {
	p := parser{b: body}
	var req MapRequest
	if p.request(&req) {
		return req, nil
	}
	return decodeStdlib(body)
}

// decodeStdlib is the encoding/json decode that defines the semantics of
// a body.
func decodeStdlib(body []byte) (MapRequest, error) {
	var req MapRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// minEdgeBytes is the shortest json.Marshal writes an edge and its
// comma: {"src":0,"dst":0,"volume":0,"msgs":0},
const minEdgeBytes = 38

// parser reads the canonical subset of JSON. Every method reports false
// on the first byte outside the subset; the caller then falls back.
type parser struct {
	b []byte
	i int
}

func (p *parser) request(r *MapRequest) bool {
	var seen uint16
	ok := p.object(func(key []byte) bool {
		switch string(key) {
		case "workload":
			return once(&seen, 1<<0) && p.text(&r.Workload)
		case "procs":
			return once(&seen, 1<<1) && p.int(&r.Procs)
		case "iters":
			return once(&seen, 1<<2) && p.int(&r.Iters)
		case "edges":
			if !once(&seen, 1<<3) {
				return false
			}
			// Sized for every edge a marshalled body has room for, so
			// the list is allocated once; append grows it past that.
			r.Edges = make([]Edge, 0, (len(p.b)-p.i)/minEdgeBytes)
			return p.array(func() bool {
				r.Edges = append(r.Edges, Edge{})
				return p.edge(&r.Edges[len(r.Edges)-1])
			})
		case "constraint":
			return once(&seen, 1<<4) && p.ints(&r.Constraint)
		case "allowed":
			if !once(&seen, 1<<5) {
				return false
			}
			r.Allowed = [][]int{}
			return p.array(func() bool {
				r.Allowed = append(r.Allowed, nil)
				return p.ints(&r.Allowed[len(r.Allowed)-1])
			})
		case "algorithm":
			return once(&seen, 1<<6) && p.text(&r.Algorithm)
		case "kappa":
			return once(&seen, 1<<7) && p.int(&r.Kappa)
		case "seed":
			return once(&seen, 1<<8) && p.int64(&r.Seed)
		case "deadline_ms":
			return once(&seen, 1<<9) && p.int64(&r.DeadlineMillis)
		}
		return false
	})
	p.space()
	return ok && p.i == len(p.b)
}

func (p *parser) edge(e *Edge) bool {
	var seen uint16
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "src":
			return once(&seen, 1<<0) && p.int(&e.Src)
		case "dst":
			return once(&seen, 1<<1) && p.int(&e.Dst)
		case "volume":
			return once(&seen, 1<<2) && p.float(&e.Volume)
		case "msgs":
			return once(&seen, 1<<3) && p.float(&e.Msgs)
		}
		return false
	})
}

// once marks bit in seen and reports whether it was clear: a key seen
// twice in one object falls back.
func once(seen *uint16, bit uint16) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object reads {"key": value, ...}; field reads the value of each key.
func (p *parser) object(field func(key []byte) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') || !field(key) {
			return false
		}
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// array reads [elem, ...]; elem reads one element.
func (p *parser) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

func (p *parser) ints(v *[]int) bool {
	*v = []int{}
	return p.array(func() bool {
		*v = append(*v, 0)
		return p.int(&(*v)[len(*v)-1])
	})
}

// str reads a string of printable ASCII without escapes and returns its
// bytes, which alias the body.
func (p *parser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (p *parser) text(v *string) bool {
	s, ok := p.str()
	*v = string(s)
	return ok
}

func (p *parser) int(v *int) bool {
	n, ok := p.integer(strconv.IntSize)
	*v = int(n)
	return ok
}

func (p *parser) int64(v *int64) bool {
	n, ok := p.integer(64)
	*v = n
	return ok
}

// integer reads a JSON integer (no fraction or exponent) that fits in
// bits.
func (p *parser) integer(bits int) (int64, bool) {
	p.space()
	start := p.i
	if !p.mantissa() {
		return 0, false
	}
	n, err := strconv.ParseInt(string(p.b[start:p.i]), 10, bits)
	return n, err == nil
}

// float reads a JSON number that strconv.ParseFloat accepts as a
// float64.
func (p *parser) float(v *float64) bool {
	p.space()
	start := p.i
	if !p.mantissa() {
		return false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digits() {
			return false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	*v = f
	return err == nil
}

// mantissa reads -?(0|[1-9][0-9]*).
func (p *parser) mantissa() bool {
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	if p.i < len(p.b) && p.b[p.i] == '0' {
		p.i++
		return true
	}
	return p.digits()
}

// digits reads [0-9]+.
func (p *parser) digits() bool {
	b, i := p.b, p.i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	ok := i > p.i
	p.i = i
	return ok
}

// eat skips whitespace and reads c if it comes next.
func (p *parser) eat(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (p *parser) space() {
	b, i := p.b, p.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	p.i = i
}
