package experiments

import (
	"fmt"
	"sort"
)

// Func is an experiment driver.
type Func func(Config) (*Report, error)

// registry maps experiment identifiers to drivers. Identifiers follow the
// paper's artifact numbering.
var registry = map[string]Func{
	"table1": Table1,
	"table2": Table2,
	"table3": Table3,
	"fig3":   Figure3,
	"fig4":   Figure4,
	"fig5":   Figure5,
	"fig6":   Figure6,
	"fig7":   Figure7,
	"fig8":   Figure8,
	"fig9":   Figure9,
	"fig10":  Figure10,
	// Extensions beyond the paper's published evaluation.
	"azure":           ExtAzure,
	"contention":      ExtContention,
	"collectives":     ExtCollectives,
	"multiconstraint": ExtMultiConstraint,
	"headline":        ExtHeadline,
	"manysites":       ExtManySites,
	"robustness":      ExtRobustness,
	"orders":          OrderSearch,
	"regauge":         ExtRegauge,
	"multilevel":      ExtMultilevel,
	"mlsmoke":         MultilevelSmoke,
}

// IDs returns all experiment identifiers in a stable order (tables first,
// then figures by number).
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return expOrder(out[a]) < expOrder(out[b]) })
	return out
}

func expOrder(id string) int {
	order := map[string]int{
		"table1": 1, "table2": 2, "table3": 3,
		"fig3": 10, "fig4": 11, "fig5": 12, "fig6": 13,
		"fig7": 14, "fig8": 15, "fig9": 16, "fig10": 17,
		"azure": 20, "contention": 21, "collectives": 22, "multiconstraint": 23, "headline": 24, "manysites": 25,
		"robustness": 26, "orders": 27, "regauge": 28, "multilevel": 29, "mlsmoke": 30,
	}
	if o, ok := order[id]; ok {
		return o
	}
	return 100
}

// Run executes the experiment with the given identifier.
//
//geolint:deterministic
func Run(id string, cfg Config) (*Report, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return fn(cfg)
}
