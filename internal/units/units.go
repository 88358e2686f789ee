// Package units defines the typed physical quantities of the α–β cost
// model. The paper's arithmetic is entirely over four dimensions — time
// (LT latencies), data volume (CG entries, message and checkpoint sizes),
// data rate (BT bandwidths) and the α–β objective itself — and a single
// `latency + bandwidth` mixup silently corrupts every downstream
// improvement figure. Promoting the raw float64s to defined types makes
// such mixups a compile error, and the geolint unitcheck rule closes the
// remaining holes (float64 laundering, bare literals) that conversions
// would otherwise reopen.
//
// Each type is marked with a //geolint:unit directive on its declaration;
// the analysis facts mechanism exports the marked types so unitcheck
// recognizes them in every importing package (netmodel, calib, core,
// netsim, faults, and the command-line tools).
//
// Conventions:
//
//   - Construct from raw measurements with an explicit conversion:
//     units.Seconds(0.016), units.Bytes(8<<20). The unitcheck rule treats
//     the conversion as the constructor; a bare literal assigned to a
//     unit-typed field or variable is flagged.
//   - Same-dimension arithmetic (lat1 + lat2, cost < best) uses the
//     built-in operators; Go's type system already rejects cross-type
//     operands.
//   - Cross-dimension arithmetic goes through the helpers below, which
//     perform exactly one floating-point operation each so refactoring
//     float64 code onto them is bit-identical.
//   - mat.Matrix stays float64; the matrix-facing boundary (Cloud.Latency,
//     Cloud.Bandwidth, Problem cost loops) converts at the edge.
package units

// Seconds is a duration or point on a simulated timeline: latencies,
// makespans, probe timeouts, backoff waits.
//
//geolint:unit
type Seconds float64

// Bytes is a data volume: message sizes, probe payloads, checkpoint
// images, CG matrix entries.
//
//geolint:unit
type Bytes float64

// BytesPerSec is a data rate: BT bandwidth entries, NIC rates, max-min
// fair shares.
//
//geolint:unit
type BytesPerSec float64

// Cost is the α–β objective of the paper's Formula 4 — dimensionally
// seconds (AG·LT + CG/BT), but kept distinct from Seconds so an aggregate
// objective value cannot be confused with a physical duration (a cost sums
// pairwise transfer times that overlap in real time).
//
//geolint:unit
type Cost float64

// Float returns the raw magnitude of s.
func (s Seconds) Float() float64 { return float64(s) }

// Float returns the raw magnitude of b.
func (b Bytes) Float() float64 { return float64(b) }

// Float returns the raw magnitude of r.
func (r BytesPerSec) Float() float64 { return float64(r) }

// Float returns the raw magnitude of c.
func (c Cost) Float() float64 { return float64(c) }

// Over returns the transfer time of b at rate r: b / r.
func (b Bytes) Over(r BytesPerSec) Seconds { return Seconds(float64(b) / float64(r)) }

// Per returns the rate of moving b in t: b / t (bandwidth estimated from a
// probe's payload and elapsed time).
func (b Bytes) Per(t Seconds) BytesPerSec { return BytesPerSec(float64(b) / float64(t)) }

// Times returns the volume moved at rate r over t: r * t.
func (r BytesPerSec) Times(t Seconds) Bytes { return Bytes(float64(r) * float64(t)) }

// Scale returns s * x for a dimensionless factor x (message counts,
// jitter wobbles, retry multipliers).
func (s Seconds) Scale(x float64) Seconds { return Seconds(float64(s) * x) }

// Scale returns b * x for a dimensionless factor x.
func (b Bytes) Scale(x float64) Bytes { return Bytes(float64(b) * x) }

// Scale returns r * x for a dimensionless factor x (degradation factors,
// instance-type scaling).
func (r BytesPerSec) Scale(x float64) BytesPerSec { return BytesPerSec(float64(r) * x) }

// Div returns r / x for a dimensionless divisor x (fair-share splits).
func (r BytesPerSec) Div(x float64) BytesPerSec { return BytesPerSec(float64(r) / x) }

// AsCost converts a pairwise α–β transfer time into its contribution to
// the Formula 4 objective.
func (s Seconds) AsCost() Cost { return Cost(s) }

// AsSeconds reinterprets an objective value on the time axis (reports
// that print costs in seconds).
func (c Cost) AsSeconds() Seconds { return Seconds(c) }

// Scale returns c * x for a dimensionless factor x (amortization
// horizons, improvement ratios).
func (c Cost) Scale(x float64) Cost { return Cost(float64(c) * x) }
