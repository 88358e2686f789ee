package core

import (
	"fmt"
	"math/rand"
	"sync"

	"geoprocmap/internal/geo"
	"geoprocmap/internal/kmeans"
	"geoprocmap/internal/stats"
)

// randPool recycles GroupSites' K-means generators. Seed restarts a
// recycled generator's stream exactly where stats.NewRand(seed) starts a
// new one, so recycling moves no K-means start, and no state of one
// grouping reaches the next. A generator has a fixed size (~4.9 KB), so
// no pooled one outgrows what a new one would hold.
var randPool = sync.Pool{New: func() any { return stats.NewRand(0) }}

// GroupSites clusters the M sites into at most kappa groups by K-means over
// their physical coordinates (latitude, longitude) with Euclidean distance
// and Forgy initialization, exactly as the paper's grouping optimization
// prescribes. Empty clusters are dropped, so the result may have fewer than
// kappa groups; each group is a non-empty slice of site indices and every
// site appears in exactly one group.
func GroupSites(pc []geo.LatLon, kappa int, seed int64) ([][]int, error) {
	m := len(pc)
	if m == 0 {
		return nil, fmt.Errorf("core: no sites to group")
	}
	if kappa < 1 {
		return nil, fmt.Errorf("core: kappa = %d, want >= 1", kappa)
	}
	if kappa > m {
		kappa = m
	}
	points := make([]kmeans.Point, m)
	for i, c := range pc {
		points[i] = kmeans.Point{c.Lat, c.Lon}
	}
	rng := randPool.Get().(*rand.Rand)
	defer randPool.Put(rng)
	rng.Seed(seed)
	res, err := kmeans.Cluster(points, kappa, 100, rng)
	if err != nil {
		return nil, fmt.Errorf("core: grouping sites: %w", err)
	}
	var groups [][]int
	for _, g := range kmeans.Groups(res.Assignment, kappa) {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	return groups, nil
}
