package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHaversineKnownPairs(t *testing.T) {
	usEast := MustRegion(EC2Regions, "us-east-1").Location
	usWest := MustRegion(EC2Regions, "us-west-1").Location
	ireland := MustRegion(EC2Regions, "eu-west-1").Location
	singapore := MustRegion(EC2Regions, "ap-southeast-1").Location

	cases := []struct {
		name     string
		a, b     LatLon
		min, max float64 // km bounds
	}{
		{"east-west-us", usEast, usWest, 3500, 4200},
		{"east-ireland", usEast, ireland, 5200, 6000},
		{"east-singapore", usEast, singapore, 15000, 16500},
	}
	for _, tc := range cases {
		got := HaversineKm(tc.a, tc.b)
		if got < tc.min || got > tc.max {
			t.Errorf("%s: distance %.0f km outside [%v, %v]", tc.name, got, tc.min, tc.max)
		}
	}
}

func TestHaversineZeroAndSymmetry(t *testing.T) {
	p := LatLon{10, 20}
	if d := HaversineKm(p, p); d != 0 {
		t.Errorf("self-distance = %v, want 0", d)
	}
	q := LatLon{-30, 150}
	if math.Abs(HaversineKm(p, q)-HaversineKm(q, p)) > 1e-9 {
		t.Error("haversine not symmetric")
	}
}

func TestHaversineAntipodal(t *testing.T) {
	a := LatLon{0, 0}
	b := LatLon{0, 180}
	want := math.Pi * EarthRadiusKm
	if got := HaversineKm(a, b); math.Abs(got-want) > 1 {
		t.Errorf("antipodal distance = %v, want %v", got, want)
	}
}

func TestFindRegion(t *testing.T) {
	if _, ok := FindRegion(EC2Regions, "us-east-1"); !ok {
		t.Error("us-east-1 not found")
	}
	if _, ok := FindRegion(EC2Regions, "mars-north-1"); ok {
		t.Error("nonexistent region found")
	}
}

func TestMustRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegion(unknown) did not panic")
		}
	}()
	MustRegion(AzureRegions, "nope")
}

func TestCatalogsComplete(t *testing.T) {
	if len(EC2Regions) != 11 {
		t.Errorf("EC2 catalog has %d regions, paper's Figure 1 shows 11", len(EC2Regions))
	}
	seen := map[string]bool{}
	for _, r := range EC2Regions {
		if seen[r.Name] {
			t.Errorf("duplicate region %s", r.Name)
		}
		seen[r.Name] = true
		if r.Location.Lat < -90 || r.Location.Lat > 90 || r.Location.Lon < -180 || r.Location.Lon > 180 {
			t.Errorf("region %s has invalid coordinates %v", r.Name, r.Location)
		}
	}
}

func TestClassifyKm(t *testing.T) {
	usEast := MustRegion(EC2Regions, "us-east-1").Location
	cases := []struct {
		other string
		want  DistanceClass
	}{
		{"us-west-1", DistShort},
		{"eu-west-1", DistMedium},
		{"ap-southeast-1", DistLong},
	}
	for _, tc := range cases {
		km := HaversineKm(usEast, MustRegion(EC2Regions, tc.other).Location)
		if got := ClassifyKm(km); got != tc.want {
			t.Errorf("us-east-1↔%s (%.0f km) classified %v, want %v", tc.other, km, got, tc.want)
		}
	}
	if ClassifyKm(0) != DistIntra {
		t.Error("0 km should be Intra-Region")
	}
}

func TestDistanceClassString(t *testing.T) {
	if DistLong.String() != "Long" || DistIntra.String() != "Intra-Region" {
		t.Error("unexpected DistanceClass strings")
	}
	if DistanceClass(42).String() == "" {
		t.Error("unknown class should still render")
	}
}

// Property: haversine satisfies symmetry, non-negativity and the triangle
// inequality (metric axioms) for arbitrary coordinates.
func TestQuickHaversineMetric(t *testing.T) {
	clamp := func(lat, lon float64) LatLon {
		return LatLon{Lat: math.Mod(lat, 90), Lon: math.Mod(lon, 180)}
	}
	f := func(a1, a2, b1, b2, c1, c2 float64) bool {
		if math.IsNaN(a1 + a2 + b1 + b2 + c1 + c2) {
			return true
		}
		a, b, c := clamp(a1, a2), clamp(b1, b2), clamp(c1, c2)
		ab, ba := HaversineKm(a, b), HaversineKm(b, a)
		bc, ac := HaversineKm(b, c), HaversineKm(a, c)
		if ab < 0 || math.Abs(ab-ba) > 1e-6 {
			return false
		}
		return ac <= ab+bc+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
