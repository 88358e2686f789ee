package service

import (
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the JSON number grammar (RFC 8259, section 6).
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkFloatAgrees fails unless the parser reads s, after JSON
// whitespace, exactly when s is a JSON number strconv.ParseFloat accepts
// as a float64, and then to the same bits.
func checkFloatAgrees(t *testing.T, s string) {
	t.Helper()
	got, ok := readFloat(s)
	num := strings.TrimLeft(s, " \t\n\r")
	want, err := strconv.ParseFloat(num, 64)
	switch wantOK := jsonNumber.MatchString(num) && err == nil; {
	case ok != wantOK:
		t.Fatalf("%q: parser read it: %v, ParseFloat on a JSON number: %v (%v)", s, ok, wantOK, err)
	case ok && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%q: parser read %v (%#x), ParseFloat %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkFloatReads fails unless the parser reads the JSON number s to the
// bits strconv.ParseFloat gives: checkFloatAgrees without the grammar
// check, for strings built in JSON number grammar.
func checkFloatReads(t *testing.T, s string) {
	got, ok := readFloat(s)
	want, err := strconv.ParseFloat(s, 64)
	if !ok || err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: parser read %v (%#x, ok %v), ParseFloat %v (%#x, %v)", s, got, math.Float64bits(got), ok, want, math.Float64bits(want), err)
	}
}

// readFloat reads s with the parser and reports whether it read all of s
// as one number.
func readFloat(s string) (float64, bool) {
	p := parser{b: []byte(s)}
	var v float64
	ok := p.float(&v) && p.i == len(p.b)
	return v, ok
}

// floatCases, the seeds of FuzzFloatMatchesParseFloat, sit at the edges
// of the exact read: signed zeros, 2^53 and
// its neighbours, halfway and near-halfway decimals on each path of
// exactFloat, 19 and 20 significant digits, 19 and 20 fraction digits,
// and numbers outside the JSON grammar or with an exponent part.
var floatCases = []string{
	"0", "-0", "0.0", "-0.0", "0.000", "1", "-1", "0.5", "-2.5",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740995", "-9007199254740993",
	"9007199254740993.0", "4503599627370496.5", "4503599627370497.5", "4503599627370497.4999", "4503599627370497.5001",
	"2251799813685248.25", "2251799813685248.75", "1125899906842624.125", "18014398509481985", "18014398509481986",
	"9223372036854775807", "9223372036854775808", "9223372036854776833", "9999999999999999999", "1000000000000000000",
	"1234567890123456789", "0.1234567890123456789", "123456789.0123456789", "12345678901234567890", "99999999999999999999",
	"0.0000000000000000001", "0.00000000000000000001", "0.9999999999999999999", "0.30000000000000004", "3456789.123456789",
	"1.7976931348623157", "2.2250738585072014", "0.000000000000000000000000000001",
	"00", "01", "-01", "1.", "-", "-.5", ".5", "+1", "1.e5", "1e", "1e+", "--1", "0x10", "Inf", "NaN", "1_0", "",
	"1e5", "1E5", "1.5e-7", "2.5E+300", "1e400", "-1e400", "1e-400", "4.9e-324", " 1.5", "\n\t-0",
}

// TestFloatMatchesParseFloatRandom compares the parser with ParseFloat on
// a million strings of each of three kinds: the shortest 'f' form
// json.Marshal writes for values across thirty decades, raw float64 bit
// patterns in json.Marshal's form, and random decimals of up to 19
// digits with up to 22 of them after the point and a random sign.
func TestFloatMatchesParseFloatRandom(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		x := (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(30)-15))
		checkFloatReads(t, strconv.FormatFloat(x, 'f', -1, 64))

		if x = math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
			format := byte('f')
			if a := math.Abs(x); a != 0 && (a < 1e-6 || a >= 1e21) {
				format = 'e' // json.Marshal's choice
			}
			checkFloatReads(t, strconv.FormatFloat(x, format, -1, 64))
		}

		m := rng.Uint64() % pow10[1+rng.Intn(maxExactDigits)]
		k := rng.Intn(maxExactDigits + 4) // digits after the point
		d := strconv.FormatUint(m, 10)
		if k > 0 {
			d = strings.Repeat("0", max(k+1-len(d), 0)) + d
			d = d[:len(d)-k] + "." + d[len(d)-k:]
		}
		if rng.Intn(2) == 0 {
			d = "-" + d
		}
		checkFloatReads(t, d)
	}
}

// FuzzFloatMatchesParseFloat requires the parser to read a number exactly
// when strconv.ParseFloat accepts it as a JSON number, and to the same
// bits.
func FuzzFloatMatchesParseFloat(f *testing.F) {
	for _, s := range floatCases {
		f.Add(s)
	}
	f.Fuzz(checkFloatAgrees)
}
