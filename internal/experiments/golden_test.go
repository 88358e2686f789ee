package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGeoMapperPlacementsGolden pins the paper path across commits:
// TestSeedDeterminism and the serve smokes compare two runs of one build,
// so a change that moves every GeoMapper placement the same way passes
// them. Here the placements of the paper's five workloads on the EC2
// evaluation cloud, over N ∈ {16, 64, 256}, seeds 1–2, constraint ratios
// 0 and 0.2 and κ ∈ {2, 4}, must hash to the checked-in digests. Run with
// -update to rewrite the file after a deliberate re-baseline.
func TestGeoMapperPlacementsGolden(t *testing.T) {
	var buf bytes.Buffer
	paperPlacements(t, &buf, func(kappa int, seed int64) core.Mapper {
		return &core.GeoMapper{Kappa: kappa, Seed: seed}
	})
	checkGolden(t, "geomapper_placements.golden", buf.Bytes())
}

// TestMultilevelPlacementsGolden pins MultilevelGeoMapper placements the
// same way, over the same paper instances plus synthetic 16-site cells at
// κ ∈ {7, 8}, where the coarsest-level order search examines only the
// first 720 of the κ! group orders.
func TestMultilevelPlacementsGolden(t *testing.T) {
	var buf bytes.Buffer
	multilevel := func(kappa int, seed int64) core.Mapper {
		return &core.MultilevelGeoMapper{Kappa: kappa, Seed: seed}
	}
	paperPlacements(t, &buf, multilevel)
	for _, n := range []int{1024, 4096} {
		for seed := int64(1); seed <= 2; seed++ {
			p := syntheticProblem(n, 16, seed)
			for _, kappa := range []int{7, 8} {
				writeDigest(t, &buf, multilevel(kappa, seed), p,
					fmt.Sprintf("synthetic m=16 n=%d seed=%d kappa=%d", n, seed, kappa))
			}
		}
	}
	checkGolden(t, "multilevel_placements.golden", buf.Bytes())
}

// paperPlacements writes one digest line per paper instance: the five
// workloads on the EC2 evaluation cloud over N ∈ {16, 64, 256}, seeds 1–2,
// constraint ratios 0 and 0.2 and κ ∈ {2, 4}.
func paperPlacements(t *testing.T, buf *bytes.Buffer, mapper func(kappa int, seed int64) core.Mapper) {
	t.Helper()
	for _, app := range apps.All() {
		for _, n := range []int{16, 64, 256} {
			for seed := int64(1); seed <= 2; seed++ {
				for _, ratio := range []float64{0, 0.2} {
					cloud, err := PaperCloudForScale(n, seed)
					if err != nil {
						t.Fatal(err)
					}
					inst, err := BuildInstance(cloud, app, n, 10, ratio, seed)
					if err != nil {
						t.Fatal(err)
					}
					for _, kappa := range []int{2, 4} {
						writeDigest(t, buf, mapper(kappa, seed), inst.Problem,
							fmt.Sprintf("%s n=%d seed=%d ratio=%g kappa=%d", app.Name(), n, seed, ratio, kappa))
					}
				}
			}
		}
	}
}

// writeDigest maps p and writes the label with the placement's digest.
func writeDigest(t *testing.T, buf *bytes.Buffer, m core.Mapper, p *core.Problem, label string) {
	t.Helper()
	pl, err := m.Map(p)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(buf, "%s %x\n", label, sha256.Sum256([]byte(fmt.Sprint(pl))))
}

// checkGolden compares got with testdata/name line by line, rewriting the
// file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("placement digest differs:\n got  %s\n want %s", gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d digest lines, want %d", len(gl)-1, len(wl)-1)
		}
	}
}
