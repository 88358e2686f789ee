package netmodel

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"geoprocmap/internal/geo"
)

func paperCloud(t *testing.T) *Cloud {
	t.Helper()
	c, err := PaperCloud(1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPaperCloudShape(t *testing.T) {
	c := paperCloud(t)
	if c.M() != 4 {
		t.Errorf("M = %d, want 4", c.M())
	}
	if c.TotalNodes() != 64 {
		t.Errorf("TotalNodes = %d, want 64", c.TotalNodes())
	}
	cap := c.Capacity()
	for i, n := range cap {
		if n != 16 {
			t.Errorf("site %d capacity = %d, want 16", i, n)
		}
	}
	if len(c.Coordinates()) != 4 {
		t.Error("Coordinates length mismatch")
	}
}

// Observation 1: intra-region bandwidth is much higher than cross-region.
func TestObservation1IntraVsCross(t *testing.T) {
	c := paperCloud(t)
	for k := 0; k < c.M(); k++ {
		intra := c.BT.At(k, k)
		for l := 0; l < c.M(); l++ {
			if k == l {
				continue
			}
			cross := c.BT.At(k, l)
			if intra < 4*cross {
				t.Errorf("intra bw %e at site %d not ≫ cross bw %e to %d", intra, k, cross, l)
			}
		}
	}
}

// Observation 2: farther region pairs get lower bandwidth and higher latency.
func TestObservation2DistanceCorrelation(t *testing.T) {
	c := paperCloud(t)
	// Site order: us-east-1(0), us-west-1(1), ap-southeast-1(2), eu-west-1(3).
	bwWest := c.BT.At(0, 1)
	bwIreland := c.BT.At(0, 3)
	bwSingapore := c.BT.At(0, 2)
	if !(bwWest > bwIreland && bwIreland > bwSingapore) {
		t.Errorf("bandwidth ordering violated: west=%e ireland=%e singapore=%e", bwWest, bwIreland, bwSingapore)
	}
	// Paper Table 2: US West ≈ 3× Singapore bandwidth.
	if ratio := bwWest / bwSingapore; ratio < 2 || ratio > 5 {
		t.Errorf("west/singapore bandwidth ratio = %.2f, want ≈3", ratio)
	}
	latWest := c.LT.At(0, 1)
	latSingapore := c.LT.At(0, 2)
	if latWest >= latSingapore {
		t.Errorf("latency ordering violated: west=%v singapore=%v", latWest, latSingapore)
	}
}

// Table 2 absolute values: 21/19/6.6 MB/s and 0.16/0.17/0.35 s for
// c3.8xlarge US East ↔ {US West, Ireland, Singapore}.
func TestTable2Calibration(t *testing.T) {
	c, err := EvenCloud(AmazonEC2, "c3.8xlarge", PaperEC2Regions, 1, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want, tolFrac float64) {
		if math.Abs(got-want) > want*tolFrac {
			t.Errorf("%s = %.3g, want %.3g ±%.0f%%", name, got, want, tolFrac*100)
		}
	}
	check("bw east↔west (MB/s)", c.BT.At(0, 1)/MB, 21, 0.35)
	check("bw east↔ireland (MB/s)", c.BT.At(0, 3)/MB, 19, 0.35)
	check("bw east↔singapore (MB/s)", c.BT.At(0, 2)/MB, 6.6, 0.35)
	check("lat east↔west (s)", c.LT.At(0, 1), 0.16, 0.25)
	check("lat east↔ireland (s)", c.LT.At(0, 3), 0.17, 0.25)
	check("lat east↔singapore (s)", c.LT.At(0, 2), 0.35, 0.25)
	check("intra bw (MB/s)", c.BT.At(0, 0)/MB, 176, 0.2)
}

// Table 3: Azure Standard D2 values.
func TestTable3AzureCalibration(t *testing.T) {
	c, err := EvenCloud(WindowsAzure, "Standard_D2", []string{"east-us", "west-europe", "japan-east"}, 1, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.BT.At(0, 0) / MB; math.Abs(got-62) > 62*0.2 {
		t.Errorf("intra bw = %.1f MB/s, want ≈62", got)
	}
	bwEU := c.BT.At(0, 1) / MB
	bwJP := c.BT.At(0, 2) / MB
	if math.Abs(bwEU-2.9) > 2.9*0.4 {
		t.Errorf("east-us↔west-europe bw = %.2f MB/s, want ≈2.9", bwEU)
	}
	if math.Abs(bwJP-1.3) > 1.3*0.45 {
		t.Errorf("east-us↔japan-east bw = %.2f MB/s, want ≈1.3", bwJP)
	}
	if got := c.LT.At(0, 1); math.Abs(got-0.042) > 0.021 {
		t.Errorf("east-us↔west-europe lat = %.4f s, want ≈0.042", got)
	}
}

func TestAsymmetryAndDeterminism(t *testing.T) {
	a := paperCloud(t)
	// Matrices are asymmetric (jitter per direction) but close.
	if a.BT.At(0, 1) == a.BT.At(1, 0) {
		t.Error("BT perfectly symmetric; expected per-direction jitter")
	}
	if r := a.BT.At(0, 1) / a.BT.At(1, 0); r < 0.9 || r > 1.1 {
		t.Errorf("direction asymmetry too large: ratio %v", r)
	}
	// Same seed reproduces the same cloud.
	b := paperCloud(t)
	if !reflect.DeepEqual(a.BT, b.BT) || !reflect.DeepEqual(a.LT, b.LT) {
		t.Error("same seed produced different clouds")
	}
	c, err := PaperCloud(2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.BT, c.BT) {
		t.Error("different seeds produced identical clouds")
	}
}

func TestNewCloudErrors(t *testing.T) {
	if _, err := NewCloud(AmazonEC2, "m4.xlarge", nil, Options{}); err == nil {
		t.Error("empty site list accepted")
	}
	if _, err := NewCloud(AmazonEC2, "nope", []Site{{Region: geo.EC2Regions[0], Nodes: 1}}, Options{}); err == nil {
		t.Error("unknown instance type accepted")
	}
	if _, err := NewCloud(AmazonEC2, "m4.xlarge", []Site{{Region: geo.EC2Regions[0], Nodes: 0}}, Options{}); err == nil {
		t.Error("zero-node site accepted")
	}
	if _, err := EvenCloud(AmazonEC2, "m4.xlarge", []string{"mars-1"}, 1, Options{}); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestTransferTime(t *testing.T) {
	if got := TransferTime(1e6, 0.1, 1e6); got != 1.1 {
		t.Errorf("TransferTime = %v, want 1.1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth did not panic")
		}
	}()
	TransferTime(1, 0, 0)
}

// Property: the provider bandwidth model is monotone nonincreasing in
// distance and respects its caps.
func TestQuickCrossBandwidthMonotone(t *testing.T) {
	f := func(d1Raw, d2Raw uint16) bool {
		d1 := float64(d1Raw)
		d2 := float64(d2Raw)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		b1 := AmazonEC2.CrossBandwidthMBps(d1)
		b2 := AmazonEC2.CrossBandwidthMBps(d2)
		if b1 < b2 {
			return false
		}
		return b1 <= AmazonEC2.CrossBWMaxMBps && b2 >= AmazonEC2.CrossBWMinMBps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: all generated matrix entries are strictly positive for random
// subsets of EC2 regions.
func TestQuickCloudPositivity(t *testing.T) {
	f := func(seed int64, mask uint16) bool {
		var names []string
		for i, r := range geo.EC2Regions {
			if mask&(1<<uint(i)) != 0 {
				names = append(names, r.Name)
			}
		}
		if len(names) == 0 {
			names = []string{"us-east-1"}
		}
		c, err := EvenCloud(AmazonEC2, "m1.large", names, 2, Options{Seed: seed})
		if err != nil {
			return false
		}
		for k := 0; k < c.M(); k++ {
			for l := 0; l < c.M(); l++ {
				if c.LT.At(k, l) <= 0 || c.BT.At(k, l) <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
