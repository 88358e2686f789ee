// Package geo models geographic locations of cloud data centers.
//
// The paper's grouping optimization clusters sites by physical distance
// using each site's latitude/longitude (the PC matrix in Table 4), and its
// Observation 2 ties cross-region network performance to geographic
// distance. This package supplies the coordinate type, great-circle and
// planar distances, and catalogs of the Amazon EC2 (as of Nov 2015, the
// paper's Figure 1) and Windows Azure regions used in the evaluation.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm = 6371.0

// LatLon is a geographic coordinate in degrees.
type LatLon struct {
	Lat float64 // latitude, degrees north
	Lon float64 // longitude, degrees east
}

func (p LatLon) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.Lat, p.Lon) }

// HaversineKm returns the great-circle distance between a and b in
// kilometers. This is the physical distance the paper's Observation 2
// correlates with cross-region network performance.
func HaversineKm(a, b LatLon) float64 {
	const degToRad = math.Pi / 180
	lat1, lat2 := a.Lat*degToRad, b.Lat*degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Region is a named cloud data-center location.
type Region struct {
	Name     string // provider region code, e.g. "us-east-1"
	Display  string // human-readable name, e.g. "US East (N. Virginia)"
	Location LatLon
}

// EC2Regions lists the 11 Amazon EC2 regions of the paper's Figure 1
// (the AWS global infrastructure as of Nov 2015).
var EC2Regions = []Region{
	{"us-east-1", "US East (N. Virginia)", LatLon{38.95, -77.45}},
	{"us-west-1", "US West (N. California)", LatLon{37.35, -121.96}},
	{"us-west-2", "US West (Oregon)", LatLon{45.84, -119.29}},
	{"eu-west-1", "EU (Ireland)", LatLon{53.35, -6.26}},
	{"eu-central-1", "EU (Frankfurt)", LatLon{50.11, 8.68}},
	{"ap-southeast-1", "Asia Pacific (Singapore)", LatLon{1.35, 103.82}},
	{"ap-southeast-2", "Asia Pacific (Sydney)", LatLon{-33.87, 151.21}},
	{"ap-northeast-1", "Asia Pacific (Tokyo)", LatLon{35.68, 139.69}},
	{"sa-east-1", "South America (São Paulo)", LatLon{-23.55, -46.63}},
	{"us-gov-west-1", "AWS GovCloud (US)", LatLon{45.60, -121.18}},
	{"cn-north-1", "China (Beijing)", LatLon{39.90, 116.40}},
}

// AzureRegions lists the Windows Azure regions referenced by the paper's
// Table 3 measurements.
var AzureRegions = []Region{
	{"east-us", "East US (Virginia)", LatLon{37.37, -79.82}},
	{"west-europe", "West Europe (Netherlands)", LatLon{52.37, 4.90}},
	{"japan-east", "Japan East (Tokyo)", LatLon{35.68, 139.69}},
	{"west-us", "West US (California)", LatLon{37.78, -122.42}},
	{"southeast-asia", "Southeast Asia (Singapore)", LatLon{1.35, 103.82}},
}

// FindRegion looks a region up by name in the given catalog.
func FindRegion(catalog []Region, name string) (Region, bool) {
	for _, r := range catalog {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// MustRegion is like FindRegion but panics when the region is unknown.
// It is intended for preset construction and tests.
func MustRegion(catalog []Region, name string) Region {
	r, ok := FindRegion(catalog, name)
	if !ok {
		panic(fmt.Sprintf("geo: unknown region %q", name))
	}
	return r
}

// DistanceClass buckets a physical distance the way the paper's Tables 2
// and 3 label site pairs: Intra (same region), Short, Medium, or Long.
type DistanceClass int

// Distance classes ordered by increasing distance.
const (
	DistIntra DistanceClass = iota
	DistShort
	DistMedium
	DistLong
)

func (d DistanceClass) String() string {
	switch d {
	case DistIntra:
		return "Intra-Region"
	case DistShort:
		return "Short"
	case DistMedium:
		return "Medium"
	case DistLong:
		return "Long"
	default:
		return fmt.Sprintf("DistanceClass(%d)", int(d))
	}
}

// ClassifyKm maps a distance in kilometers to a DistanceClass using the
// breakpoints implied by the paper's tables: US-East↔US-West (~3900 km) is
// "Short", US-East↔Ireland (~5500 km) is "Medium", and US-East↔Singapore
// (~15500 km) is "Long".
func ClassifyKm(km float64) DistanceClass {
	switch {
	case km < 100:
		return DistIntra
	case km < 5000:
		return DistShort
	case km < 9000:
		return DistMedium
	default:
		return DistLong
	}
}
