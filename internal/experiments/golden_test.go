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
						pl, err := (&core.GeoMapper{Kappa: kappa, Seed: seed}).Map(inst.Problem)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&buf, "%s n=%d seed=%d ratio=%g kappa=%d %x\n",
							app.Name(), n, seed, ratio, kappa, sha256.Sum256([]byte(fmt.Sprint(pl))))
					}
				}
			}
		}
	}
	golden := filepath.Join("testdata", "geomapper_placements.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
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
