package experiments

import "fmt"

// Func is an experiment driver.
type Func func(Config) (*Report, error)

// registry lists the experiment drivers in IDs order: tables first, then
// figures by number, then the extensions beyond the paper's published
// evaluation. Identifiers follow the paper's artifact numbering.
var registry = []struct {
	id string
	fn Func
}{
	{"table1", Table1},
	{"table2", Table2},
	{"table3", Table3},
	{"fig3", Figure3},
	{"fig4", Figure4},
	{"fig5", Figure5},
	{"fig6", Figure6},
	{"fig7", Figure7},
	{"fig8", Figure8},
	{"fig9", Figure9},
	{"fig10", Figure10},
	{"azure", ExtAzure},
	{"contention", ExtContention},
	{"collectives", ExtCollectives},
	{"multiconstraint", ExtMultiConstraint},
	{"headline", ExtHeadline},
	{"manysites", ExtManySites},
	{"robustness", ExtRobustness},
	{"orders", OrderSearch},
	{"regauge", ExtRegauge},
	{"multilevel", ExtMultilevel},
	{"mlsmoke", MultilevelSmoke},
}

// IDs returns all experiment identifiers in a stable order (tables first,
// then figures by number).
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes the experiment with the given identifier.
//
//geolint:deterministic
func Run(id string, cfg Config) (*Report, error) {
	for _, e := range registry {
		if e.id == id {
			return e.fn(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
}
