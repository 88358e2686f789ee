// Package netmodel models the network of a geo-distributed cloud.
//
// It is the substitute for the paper's physical testbeds (Amazon EC2 across
// four regions, Windows Azure) and supplies the inputs the mapping problem
// needs: the inter/intra-site latency matrix LT, the bandwidth matrix BT,
// the physical coordinates PC of every site, and per-site node counts.
//
// The generator reproduces the paper's two empirical observations:
//
//   - Observation 1: intra-region bandwidth is an order of magnitude higher
//     than cross-region bandwidth (Table 1: 15–204 MB/s intra vs
//     5.4–6.6 MB/s across US East↔Singapore).
//   - Observation 2: cross-region performance is strongly correlated with
//     geographic distance (Table 2: 21 MB/s to US West, 19 MB/s to Ireland,
//     6.6 MB/s to Singapore; latency rising with distance).
//
// Bandwidth across regions is modeled as bw ≈ K/d (distance-inverse with
// caps) and latency as an affine function of distance, both fit to the
// paper's measured values; intra-region values come from per-instance-type
// calibration tables. Small deterministic per-pair jitter keeps the
// matrices asymmetric, as the paper notes real measurements are.
package netmodel

import (
	"fmt"
	"math"

	"geoprocmap/internal/faults"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// The quantity types of the α–β model, re-exported from internal/units so
// every consumer of the network model can name them without a second
// import. The canonical declarations (and their //geolint:unit markers)
// live in package units, which sits below internal/faults in the import
// graph.
type (
	// Seconds is a latency, timeout, or simulated duration.
	Seconds = units.Seconds
	// Bytes is a message, probe, or checkpoint volume.
	Bytes = units.Bytes
	// BytesPerSec is a link bandwidth or fair-share rate.
	BytesPerSec = units.BytesPerSec
	// Cost is the α–β objective of Formula 4.
	Cost = units.Cost
)

// MB is the unit used for bandwidth figures in the paper's tables.
const MB = 1e6 // bytes

// InstanceType describes a virtual-machine type's network characteristics.
type InstanceType struct {
	Name string
	// IntraBWMBps is the measured intra-region pairwise bandwidth in MB/s
	// (Table 1 of the paper).
	IntraBWMBps float64
	// CrossBWScale scales the provider's distance-derived cross-region
	// bandwidth: larger instances see slightly higher WAN throughput
	// (Table 1: 5.4 MB/s for m1.small up to 6.6 MB/s for c3.8xlarge).
	CrossBWScale float64
}

// Provider bundles the distance→performance fit for one cloud provider.
type Provider struct {
	Name    string
	Regions []geo.Region
	// CrossBWNumerator is K in bw = K/d (MB/s·km); fitted to the provider's
	// measured cross-region bandwidths.
	CrossBWNumerator float64
	// CrossBWMinMBps and CrossBWMaxMBps clamp the distance-inverse model.
	CrossBWMinMBps float64
	CrossBWMaxMBps float64
	// LatBaseSec + LatPerKmSec*d gives the one-way cross-region latency.
	// LatPerKmSec is a rate (seconds per kilometer), so it stays a raw
	// float64; the products below convert at the Seconds boundary.
	LatBaseSec  units.Seconds
	LatPerKmSec float64
	// IntraLatSec is the intra-region latency.
	IntraLatSec units.Seconds
	// Types lists the provider's calibrated instance types.
	Types []InstanceType
}

// AmazonEC2 is fitted to the paper's Tables 1 and 2:
// cross-region bandwidth 21/19/6.6 MB/s at ~3900/5500/15500 km, latency
// 0.16/0.17/0.35 s at the same distances, and the Table 1 intra-region
// bandwidths per instance type.
var AmazonEC2 = &Provider{
	Name:             "AmazonEC2",
	Regions:          geo.EC2Regions,
	CrossBWNumerator: 1.0e5,
	CrossBWMinMBps:   4.5,
	CrossBWMaxMBps:   25,
	LatBaseSec:       units.Seconds(0.096),
	LatPerKmSec:      1.64e-5,
	IntraLatSec:      units.Seconds(0.0008),
	Types: []InstanceType{
		{Name: "m1.small", IntraBWMBps: 18.5, CrossBWScale: 0.82},
		{Name: "m1.medium", IntraBWMBps: 79, CrossBWScale: 0.95},
		{Name: "m1.large", IntraBWMBps: 83, CrossBWScale: 0.95},
		{Name: "m1.xlarge", IntraBWMBps: 102.5, CrossBWScale: 0.97},
		{Name: "c3.8xlarge", IntraBWMBps: 176, CrossBWScale: 1.0},
		{Name: "m4.xlarge", IntraBWMBps: 100, CrossBWScale: 0.97},
	},
}

// WindowsAzure is fitted to the paper's Table 3: intra East-US 62 MB/s at
// 0.82 ms; East-US↔West-Europe 2.9 MB/s / 42 ms at ~6300 km;
// East-US↔Japan-East 1.3 MB/s / 77 ms at ~11000 km.
var WindowsAzure = &Provider{
	Name:             "WindowsAzure",
	Regions:          geo.AzureRegions,
	CrossBWNumerator: 1.65e4,
	CrossBWMinMBps:   0.9,
	CrossBWMaxMBps:   5,
	LatBaseSec:       units.Seconds(0),
	LatPerKmSec:      7.0e-6,
	IntraLatSec:      units.Seconds(0.00082),
	Types: []InstanceType{
		{Name: "Standard_D2", IntraBWMBps: 62, CrossBWScale: 1.0},
	},
}

// InstanceType returns the provider's instance type by name.
func (p *Provider) InstanceType(name string) (InstanceType, error) {
	for _, t := range p.Types {
		if t.Name == name {
			return t, nil
		}
	}
	return InstanceType{}, fmt.Errorf("netmodel: provider %s has no instance type %q", p.Name, name)
}

// CrossBandwidthMBps returns the modeled cross-region bandwidth for a pair
// of sites d kilometers apart, before instance-type scaling.
func (p *Provider) CrossBandwidthMBps(distKm float64) float64 {
	if distKm <= 0 {
		return p.CrossBWMaxMBps
	}
	bw := p.CrossBWNumerator / distKm
	return math.Min(p.CrossBWMaxMBps, math.Max(p.CrossBWMinMBps, bw))
}

// CrossLatencySec returns the modeled cross-region latency for a pair of
// sites d kilometers apart.
func (p *Provider) CrossLatencySec(distKm float64) units.Seconds {
	return p.LatBaseSec + units.Seconds(p.LatPerKmSec*distKm)
}

// Site is a data center hosting a number of identical instances.
type Site struct {
	Region geo.Region
	Nodes  int // number of physical nodes (instances) available
}

// Cloud is a concrete geo-distributed deployment: a set of sites with
// ground-truth network matrices. LT(k,l) is the one-way latency in seconds
// and BT(k,l) the bandwidth in bytes/second between sites k and l; diagonal
// entries hold intra-site values. Both matrices are mildly asymmetric, as
// in real measurements.
type Cloud struct {
	Provider *Provider
	Instance InstanceType
	Sites    []Site
	LT       *mat.Matrix // seconds
	BT       *mat.Matrix // bytes/second
}

// Options tunes cloud generation.
type Options struct {
	// Seed drives the deterministic per-pair jitter. Clouds built with the
	// same inputs and seed are identical.
	Seed int64
	// Jitter is the relative magnitude of per-direction asymmetric noise
	// applied to latency and bandwidth (default 0.02 = ±2%).
	Jitter float64
}

// NewCloud builds a cloud from a provider, an instance type name, and a
// list of sites. The LT/BT matrices are generated from the provider's
// distance model.
func NewCloud(p *Provider, instanceType string, sites []Site, opt Options) (*Cloud, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("netmodel: cloud needs at least one site")
	}
	inst, err := p.InstanceType(instanceType)
	if err != nil {
		return nil, err
	}
	for i, s := range sites {
		if s.Nodes <= 0 {
			return nil, fmt.Errorf("netmodel: site %d (%s) has %d nodes, want > 0", i, s.Region.Name, s.Nodes)
		}
	}
	m := len(sites)
	lt := mat.NewSquare(m)
	bt := mat.NewSquare(m)
	jitter := opt.Jitter
	if jitter == 0 { //geolint:ignore floatcmp zero-value Options default sentinel; 0 is exactly representable
		jitter = 0.02
	}
	rng := stats.NewRand(opt.Seed)
	wobble := func() float64 { return 1 + jitter*(2*rng.Float64()-1) }
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				lt.Set(k, l, p.IntraLatSec.Scale(wobble()).Float())
				bt.Set(k, l, inst.IntraBWMBps*MB*wobble())
				continue
			}
			d := geo.HaversineKm(sites[k].Region.Location, sites[l].Region.Location)
			lt.Set(k, l, p.CrossLatencySec(d).Scale(wobble()).Float())
			bw := p.CrossBandwidthMBps(d) * inst.CrossBWScale
			bt.Set(k, l, bw*MB*wobble())
		}
	}
	return &Cloud{Provider: p, Instance: inst, Sites: sites, LT: lt, BT: bt}, nil
}

// EvenCloud builds a cloud with nodesPerSite identical nodes in each of the
// named regions — the shape of every deployment in the paper's evaluation
// ("the machines are evenly distributed in each region").
func EvenCloud(p *Provider, instanceType string, regionNames []string, nodesPerSite int, opt Options) (*Cloud, error) {
	sites := make([]Site, 0, len(regionNames))
	for _, name := range regionNames {
		r, ok := geo.FindRegion(p.Regions, name)
		if !ok {
			return nil, fmt.Errorf("netmodel: provider %s has no region %q", p.Name, name)
		}
		sites = append(sites, Site{Region: r, Nodes: nodesPerSite})
	}
	return NewCloud(p, instanceType, sites, opt)
}

// PaperEC2Regions are the four regions of the paper's EC2 deployment:
// US East, US West, Singapore and Ireland.
var PaperEC2Regions = []string{"us-east-1", "us-west-1", "ap-southeast-1", "eu-west-1"}

// PaperCloud reproduces the paper's EC2 testbed: 4 regions × 16 m4.xlarge
// instances (64 nodes total, one process per instance).
func PaperCloud(seed int64) (*Cloud, error) {
	return EvenCloud(AmazonEC2, "m4.xlarge", PaperEC2Regions, 16, Options{Seed: seed})
}

// M returns the number of sites.
func (c *Cloud) M() int { return len(c.Sites) }

// TotalNodes returns the total number of physical nodes across all sites.
func (c *Cloud) TotalNodes() int {
	n := 0
	for _, s := range c.Sites {
		n += s.Nodes
	}
	return n
}

// Capacity returns the per-site node counts as the paper's I vector.
func (c *Cloud) Capacity() mat.IntVec {
	v := make(mat.IntVec, len(c.Sites))
	for i, s := range c.Sites {
		v[i] = s.Nodes
	}
	return v
}

// Coordinates returns the PC matrix: the physical coordinates of each site.
func (c *Cloud) Coordinates() []geo.LatLon {
	out := make([]geo.LatLon, len(c.Sites))
	for i, s := range c.Sites {
		out[i] = s.Region.Location
	}
	return out
}

// SiteOfNode maps a global node index (0 ≤ node < TotalNodes, sites laid
// out in order) to its site index.
func (c *Cloud) SiteOfNode(node int) int {
	if node < 0 {
		panic(fmt.Sprintf("netmodel: negative node index %d", node)) //geolint:ignore libpanic node indices are generated from the cloud's own layout
	}
	for i, s := range c.Sites {
		if node < s.Nodes {
			return i
		}
		node -= s.Nodes
	}
	panic(fmt.Sprintf("netmodel: node index beyond total capacity")) //geolint:ignore libpanic node indices are generated from the cloud's own layout
}

// TransferTime is the α–β model (Section 3.1): the time to move n bytes
// over a link with latency alpha and bandwidth beta.
func TransferTime(n units.Bytes, alpha units.Seconds, beta units.BytesPerSec) units.Seconds {
	if beta <= 0 {
		panic("netmodel: nonpositive bandwidth in TransferTime") //geolint:ignore libpanic bandwidths are validated positive at Cloud construction
	}
	return alpha + n.Over(beta)
}

// Latency returns the one-way latency between sites k and l — the typed
// view of the LT matrix entry.
func (c *Cloud) Latency(k, l int) units.Seconds { return units.Seconds(c.LT.At(k, l)) }

// Bandwidth returns the bandwidth between sites k and l — the typed view
// of the BT matrix entry.
func (c *Cloud) Bandwidth(k, l int) units.BytesPerSec { return units.BytesPerSec(c.BT.At(k, l)) }

// DeadLinkPenalty is the factor FaultView applies to a down link: latency
// is multiplied and bandwidth divided by it, making the link prohibitively
// expensive for any cost-driven mapper while keeping the matrices valid
// (strictly positive bandwidth, as Problem.Validate requires).
const DeadLinkPenalty = 1e6

// FaultView returns a copy of the cloud whose LT/BT matrices reflect the
// fault schedule's link states at time t: degraded links have their
// bandwidth scaled down and latency scaled up by the active events, and
// down links (including every link of a site in outage) carry the
// DeadLinkPenalty. Mappers fed the view steer traffic away from faulty
// links; a nil schedule returns a view identical to the cloud. The Sites
// slice is shared with the receiver, the matrices are fresh copies.
func (c *Cloud) FaultView(sched *faults.Schedule, t float64) *Cloud {
	m := c.M()
	lt := mat.NewSquare(m)
	bt := mat.NewSquare(m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			st := sched.Link(k, l, t)
			if st.Down {
				lt.Set(k, l, c.LT.At(k, l)*DeadLinkPenalty)
				bt.Set(k, l, c.BT.At(k, l)/DeadLinkPenalty)
				continue
			}
			lt.Set(k, l, c.LT.At(k, l)*st.LatFactor)
			bt.Set(k, l, c.BT.At(k, l)*st.BWFactor)
		}
	}
	view := *c
	view.LT, view.BT = lt, bt
	return &view
}
