package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestExtAzureShape(t *testing.T) {
	rep, err := ExtAzure(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("azure has %d rows, want 5", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		geo := parsePct(t, row[3])
		if geo <= 0 {
			t.Errorf("%s: geo improvement %v%% on Azure, want positive", row[0], geo)
		}
	}
}

func TestExtContentionShape(t *testing.T) {
	rep, err := ExtContention(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("contention has %d rows, want 6 (3 apps × 2 mappers)", len(rep.Rows))
	}
	// Geo stays positive under both network models.
	for _, row := range rep.Rows {
		if row[1] != "Geo-distributed" {
			continue
		}
		if parsePct(t, row[2]) <= 0 {
			t.Errorf("%s: geo not positive under dedicated WAN", row[0])
		}
	}
}

func TestExtCollectivesHierarchyWins(t *testing.T) {
	rep, err := ExtCollectives(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("collectives has %d rows, want 3", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		speedup, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "×"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if speedup <= 1 {
			t.Errorf("%s: hierarchical speedup %v×, want >1", row[0], speedup)
		}
	}
}

func TestExtMultiConstraintNeverWorse(t *testing.T) {
	rep, err := ExtMultiConstraint(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("multiconstraint has %d rows, want 5", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		pin, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		set, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		// The set relaxation can never force a worse optimum; allow a hair
		// of heuristic slack.
		if set > pin*1.05 {
			t.Errorf("%s: regional sets cost %v clearly above pins %v", row[0], set, pin)
		}
	}
}

func TestExtHeadlineClaim(t *testing.T) {
	rep, err := ExtHeadline(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("headline has %d rows, want 3", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		mean := parsePct(t, row[1])
		max := parsePct(t, row[2])
		switch row[0] {
		case "Baseline":
			if mean < 30 {
				t.Errorf("mean improvement over Baseline = %v%%, want ≥30%% (paper ~50%%)", mean)
			}
			if max < 50 {
				t.Errorf("max improvement over Baseline = %v%%, want ≥50%% (paper up to 90%%)", max)
			}
		case "Greedy":
			if mean <= 0 {
				t.Errorf("mean improvement over Greedy = %v%%, want positive", mean)
			}
		}
	}
}

func TestChartFor(t *testing.T) {
	for _, id := range []string{"fig7", "fig8", "fig10"} {
		rep, err := Run(id, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		chart, ok, err := ChartFor(rep)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !ok {
			t.Fatalf("%s: expected a chart", id)
		}
		svg, err := chart.SVG()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(svg, "<polyline") {
			t.Errorf("%s: SVG has no polylines", id)
		}
	}
	// Table artifacts are not chartable.
	rep, err := Run("table1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ChartFor(rep); ok || err != nil {
		t.Errorf("table1 chartable = %v, err %v", ok, err)
	}
}

func TestExtManySitesHierarchyCompetitive(t *testing.T) {
	rep, err := ExtManySites(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("manysites has %d rows, want 3", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		flat, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		hier, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if hier > flat*1.1 {
			t.Errorf("%s sites: hierarchical cost %v clearly above flat %v", row[0], hier, flat)
		}
		if ml, err := strconv.ParseFloat(row[4], 64); err != nil || ml <= 0 {
			t.Errorf("%s sites: multilevel cost %q, want a positive number", row[0], row[4])
		}
	}
}
