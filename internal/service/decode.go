package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"sync"
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
//     encoding/json makes). Floats in the shape json.Marshal writes for
//     edge volumes are read exactly by integer arithmetic, the rest by
//     ParseFloat, so values match bit for bit;
//   - arrays for edges, constraint and allowed, where an empty array is
//     an empty non-nil slice, as encoding/json makes it;
//   - each edge in the literal form json.Marshal writes,
//     {"src":I,"dst":I,"volume":F,"msgs":F}, with src and dst unsigned,
//     without a leading zero and at most indexDigits digits long.
//
// Everything else falls back: null, keys in another case, duplicate or
// unknown keys, escapes and non-ASCII bytes, integers with a fraction or
// exponent or out of range, floats out of range, trailing bytes, and
// edges in any other form (keys in another order, whitespace, a negative
// or long index).
// The result shares no memory with body, so the caller may reuse it.
//
// The canonical pass decodes an edge list into an array drawn from
// edgePool and returns the buffer that holds it; the caller hands it
// back with releaseEdges once nothing can read the request's Edges. The
// buffer is nil when the request has no canonical edge list.
func decodeRequest(body []byte) (MapRequest, *[]Edge, error) {
	p := parser{b: body}
	var req MapRequest
	if p.request(&req) {
		return req, p.edges, nil
	}
	releaseEdges(p.edges) // encoding/json decodes a list of its own
	req, err := decodeStdlib(body)
	return req, nil, err
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

// decodeResult decodes a cache entry's result bytes (see newCacheEntry):
// a MapResult's JSON without its closing brace.
func decodeResult(body []byte) (*MapResult, error) {
	res := new(MapResult)
	if err := json.Unmarshal(append(body[:len(body):len(body)], '}'), res); err != nil {
		return nil, err
	}
	return res, nil
}

// minEdgeBytes is the shortest json.Marshal writes an edge and its
// comma: {"src":0,"dst":0,"volume":0,"msgs":0},
const minEdgeBytes = 38

// edgePool recycles the arrays decoded edge lists are written to, so a
// steady stream of explicit-edge requests decodes without allocating. A
// buffer is taken when the parser meets an edge list and is resliced to
// length zero, and a request reads its list only up to what its own
// decode wrote. The handler hands it back (releaseEdges) only where no
// solve can still read the list: after a cache hit's response, or once
// cache.do returned without error. A leader whose deadline fired may
// leave its solve running on a worker, still reading the list, so the
// timeout, shed and error paths leave the buffer to the collector. A
// cached request keeps its list packed into bytes of its own (packEdges).
var edgePool = sync.Pool{New: func() any { return new([]Edge) }}

// maxPooledEdges caps a pooled edge list at 1 MB: 32,768 edges of 32
// bytes, room for a body of ~1.2 MB. A longer list is left to the
// collector rather than held.
const maxPooledEdges = 1 << 20 / 32

// releaseEdges hands buf back to edgePool, unless it is nil or its array
// exceeds maxPooledEdges. The caller must not read the list it held
// again.
func releaseEdges(buf *[]Edge) {
	if buf == nil || cap(*buf) > maxPooledEdges {
		return
	}
	*buf = (*buf)[:0]
	edgePool.Put(buf)
}

// parser reads the canonical subset of JSON. Every method reports false
// on the first byte outside the subset; the caller then falls back.
type parser struct {
	b []byte
	i int
	// edges is the edgePool buffer the edge list was decoded into, or
	// nil before the parser meets one.
	edges *[]Edge
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
			// A pooled array too short for every edge a marshalled
			// body has room for is replaced by one that long, so the
			// list grows at most once; append grows it past that. An
			// empty list is non-nil, as encoding/json makes it.
			p.edges = edgePool.Get().(*[]Edge)
			r.Edges = (*p.edges)[:0]
			if n := (len(p.b) - p.i) / minEdgeBytes; r.Edges == nil || cap(r.Edges) < n {
				r.Edges = make([]Edge, 0, n)
			}
			ok := p.array(func() bool {
				r.Edges = append(r.Edges, Edge{})
				return p.edge(&r.Edges[len(r.Edges)-1])
			})
			*p.edges = r.Edges
			return ok
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

// edge reads one edge object in the literal form json.Marshal writes,
// {"src":I,"dst":I,"volume":F,"msgs":F}, with src and dst read by index.
// An edge in any other form sends the body to encoding/json.
func (p *parser) edge(e *Edge) bool {
	return p.lit(`{"src":`) && p.index(&e.Src) && p.lit(`,"dst":`) && p.index(&e.Dst) &&
		p.lit(`,"volume":`) && p.float(&e.Volume) && p.lit(`,"msgs":`) && p.float(&e.Msgs) && p.lit(`}`)
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

// indexDigits is the most digits index reads: every 9-digit number fits
// a 32-bit int, and every 18-digit one a 64-bit int.
const indexDigits = 9 * (strconv.IntSize / 32)

// index reads a JSON integer with no sign, no leading zero and at most
// indexDigits digits, a subset of what int reads that needs no
// strconv.ParseInt.
func (p *parser) index(v *int) bool {
	b, i, n := p.b, p.i, 0
	for i < len(b) && b[i]-'0' <= 9 {
		if i-p.i == indexDigits {
			return false
		}
		n = n*10 + int(b[i]-'0')
		i++
	}
	if i == p.i || (b[p.i] == '0' && i-p.i > 1) {
		return false
	}
	*v, p.i = n, i
	return true
}

// lit reads s if the body continues with exactly s.
func (p *parser) lit(s string) bool {
	if !bytes.HasPrefix(p.b[p.i:], []byte(s)) {
		return false
	}
	p.i += len(s)
	return true
}

// float reads a JSON number as strconv.ParseFloat(·, 64) reads it,
// checking the grammar and gathering the decimal significand in one
// scan. A number in the shape json.Marshal writes for the volumes of
// served requests (no exponent part, at most maxExactDigits significant
// digits and at most maxExactDigits after the point) converts exactly in
// exactFloat; any other number goes to ParseFloat.
//
//geolint:allocfree
func (p *parser) float(v *float64) bool {
	p.space()
	b, i := p.b, p.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		m   uint64 // the first maxExactDigits significant digits
		sig int    // significant digits read
	)
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		i, m, sig = significand(b, i, m, sig)
	default:
		return false
	}
	k := 0 // fraction digits: the value is m / 10^k
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		i, m, sig = significand(b, frac, m, sig)
		if k = i - frac; k == 0 {
			return false
		}
	}
	exact := sig <= maxExactDigits && k <= maxExactDigits
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == exp {
			return false
		}
		exact = false
	}
	p.i = i
	if exact {
		*v = exactFloat(m, k, neg)
		return true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	*v = f
	return err == nil
}

// significand reads the digits [0-9]* from b[i:] into a decimal
// significand: m holds its first maxExactDigits significant digits and
// sig counts them all. Leading zeros are not significant.
func significand(b []byte, i int, m uint64, sig int) (int, uint64, int) {
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if d := uint64(b[i] - '0'); m != 0 || d != 0 {
			if sig++; sig <= maxExactDigits {
				m = m*10 + d
			}
		}
	}
	return i, m, sig
}

// maxExactDigits bounds the significand exactFloat takes (every 19-digit
// decimal is below 2^64) and the power of ten it divides by (10^19 is
// the largest below 2^64).
const maxExactDigits = 19

// pow10 holds the powers of ten 10^0 … 10^19, all exact in a uint64.
var pow10 = [maxExactDigits + 1]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// exactFloat returns the float64 nearest to m / 10^k, ties to even,
// negated if neg: what strconv.ParseFloat returns for the decimal, since
// ParseFloat rounds correctly. m < 10^19 and k ≤ 19 hold.
//
//   - m = 0 is ±0.
//   - m ≤ 2^53 and 10^k ≤ 10^19 < 2^64 are exact float64s (10^k is 2^k·5^k
//     with 5^19 < 2^53), and IEEE division rounds their exact quotient
//     correctly (Clinger's fast path).
//   - k = 0: the conversion from uint64 rounds to nearest even.
//   - Otherwise m > 2^53 and k ≥ 1. With a = bitlen(m) ≥ 54 and c =
//     bitlen(10^k) ≤ 64, the shift t = 63 + c − a puts q = ⌊m·2^t / 10^k⌋
//     in [2^62, 2^64): 2^(a−1) ≤ m < 2^a and 2^(c−1) ≤ 10^k < 2^c. So
//     the 128-bit m·2^t has a high word below 10^k, one Div64 gives q
//     without overflow, and q keeps 63 or 64 bits: s = bitlen(q) − 53,
//     10 or 11, more than a float64 holds. Dropping them rounds m/10^k
//     to nearest: the dropped bits are compared with half of 2^s, and a
//     nonzero remainder r of the division is the sticky bit that breaks
//     a tie upwards, so a tie goes to even only when the quotient is
//     exact. The result mant·2^(s−t), with mant in [2^52, 2^53] (a carry
//     to 2^53 moves the exponent up one), lies between 2^53/10^19 >
//     2^-11 and 10^19 < 2^64: always a normal float64, so its bits are
//     assembled directly, with no overflow or subnormal case.
//
// The sign is applied last so that -0 reads as −0.
//
//geolint:allocfree
func exactFloat(m uint64, k int, neg bool) float64 {
	var f float64
	switch {
	case m == 0:
	case m <= 1<<53:
		f = float64(m) / float64(pow10[k])
	case k == 0:
		f = float64(m)
	default:
		d := pow10[k]
		t := 63 + bits.Len64(d) - bits.Len64(m)
		var hi, lo uint64
		if t < 64 {
			hi, lo = m>>(64-t), m<<t
		} else {
			hi = m << (t - 64)
		}
		q, r := bits.Div64(hi, lo, d)
		s := bits.Len64(q) - 53
		mant, rest, half := q>>s, q&(1<<s-1), uint64(1)<<(s-1)
		if rest > half || (rest == half && (r != 0 || mant&1 == 1)) {
			mant++
		}
		exp := s - t + 52 + 1023 // biased exponent of mant·2^(s−t)
		if mant == 1<<53 {
			mant >>= 1
			exp++
		}
		f = math.Float64frombits(uint64(exp)<<52 | mant&(1<<52-1))
	}
	if neg {
		f = -f
	}
	return f
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
