// Package analysis is geolint's rule engine: a small, stdlib-only
// (go/ast, go/parser, go/token, go/types) static-analysis framework tuned
// to this repository's correctness contracts. The paper's headline result —
// ~50% average improvement over Greedy and MPIPP — is reproducible only if
// every experiment run is deterministic and every cost comparison is
// numerically sound, so the rules here guard exactly those properties:
//
//	globalrand    no package-level math/rand calls in internal/...
//	              (all randomness flows through injected seeded *rand.Rand)
//	libpanic      no panic in library code outside Must* invariant helpers
//	floatcmp      no ==/!= between float expressions in cost/mapping code
//	ctxgoroutine  goroutines in the simulators must be cancelable (select
//	              on a done/quit channel) or tracked by a sync.WaitGroup
//	unitcheck     dimensional analysis of the α–β model's unit types
//	              (//geolint:unit): no mixed-unit arithmetic laundered
//	              through float64, no bare literals where a unit is wanted,
//	              no unit-to-unit conversions bypassing the helpers
//	mapiter       map iteration order must not reach returned values,
//	              appended slices (unless sorted), formatted output, or
//	              channel sends — the determinism dataflow rule
//	errcheck      no silently discarded error returns in internal/...
//	detcheck      interprocedural determinism taint: functions annotated
//	              //geolint:deterministic must not transitively reach a
//	              nondeterminism source (time.Now, global math/rand,
//	              escaping map iteration, channel fan-in, os.Getenv,
//	              runtime.GOMAXPROCS) over the module call graph; deliberate
//	              crossings carry a justified //geolint:detsource
//	locksafe      service-tier lock discipline over the same call graph:
//	              no mutex held across a blocking operation (directly or
//	              transitively), no missing unlock on early returns, no
//	              lock-by-value copies
//	allocsafe     interprocedural allocation discipline: functions
//	              annotated //geolint:allocfree must not transitively
//	              reach an allocation site (make/new, escaping composite
//	              literals, append growth, string building, interface
//	              boxing, variadic calls, escaping closures) over the
//	              module call graph; deliberate crossings carry a
//	              justified //geolint:allocsite
//	deadcode      every declared function and method must be reachable
//	              over the module call graph from a root: a main or
//	              init, a package-level var initializer's reference, or a
//	              method matching a standard-library interface (String,
//	              Error, MarshalJSON, ServeHTTP, sort and heap methods,
//	              Import); _test.go files are never roots, and the rule
//	              reports only when the load covers the whole module
//
// Rules that need module-wide knowledge implement FactExporter; RunWith drives
// a fact phase over every package before any rule checks, so (for example)
// the unit types declared in internal/units are recognized from every
// importing package. The engine also builds a module-wide call graph
// (callgraph.go) before the fact phase, and rules implementing
// FactFinalizer get one post-export pass to compute derived closures over
// it.
//
// Findings can be suppressed with a justified ignore directive on the
// offending line or the line above:
//
//	//geolint:ignore <rule> <one-line justification>
//
// A directive without a rule ID or justification is itself reported (rule
// ID "geolint") and suppresses nothing, so every exemption in the tree
// carries its reason.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one diagnostic produced by a rule.
type Finding struct {
	Rule    string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// SourceFile is one parsed file of a package.
type SourceFile struct {
	Name string // path as given to the parser
	AST  *ast.File
	Test bool // *_test.go
}

// Pass is the per-package unit of work handed to each rule: the parsed
// files plus best-effort type information. Info and Pkg cover the
// package's non-test files; they may be incomplete when type-checking
// failed (rules degrade to syntactic checks in that case).
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path, e.g. geoprocmap/internal/core
	Files []*SourceFile
	Info  *types.Info
	Pkg   *types.Package
	// TypeErrors collects type-checker diagnostics for this package.
	// Non-empty TypeErrors means typed rules may have reduced coverage.
	TypeErrors []error
	// Facts is the module-wide fact set, populated by RunWith before any
	// rule's Check is called. Nil when rules are invoked outside RunWith.
	Facts *FactSet
	// FactsOnly marks a package loaded solely because a pattern-matched
	// package imports it: it contributes facts (unit-type declarations)
	// but is not checked. Without this, linting a subtree would silently
	// lose the unitcheck rule whenever internal/units fell outside the
	// pattern.
	FactsOnly bool
	// WholeModule marks a pass from a load whose patterns matched every
	// package of the module. deadcode runs only when every pass carries
	// it.
	WholeModule bool
}

// Rule is one geolint check.
type Rule interface {
	// ID is the short rule name used in output and ignore directives.
	ID() string
	// Doc is a one-line description for -rules output.
	Doc() string
	// Check reports the rule's findings for one package.
	Check(p *Pass) []Finding
}

// DefaultRules returns the repository's rule set.
func DefaultRules() []Rule {
	return []Rule{
		&GlobalRandRule{},
		&LibPanicRule{},
		&FloatCmpRule{},
		&CtxGoroutineRule{},
		&SleepRetryRule{},
		&UnitCheckRule{},
		&MapIterRule{},
		&ErrCheckRule{},
		&DetCheckRule{},
		&LockSafeRule{},
		&AllocSafeRule{},
		&DeadCodeRule{},
	}
}

// SelectRules filters the rule set by ID: every ID in only (when
// non-empty) or absent from skip survives. Unknown IDs in either list are
// an error, so a typo'd -only never silently lints nothing.
func SelectRules(rules []Rule, only, skip []string) ([]Rule, error) {
	byID := map[string]Rule{}
	for _, r := range rules {
		byID[r.ID()] = r
	}
	for _, id := range append(append([]string{}, only...), skip...) {
		if byID[id] == nil {
			return nil, fmt.Errorf("unknown rule %q", id)
		}
	}
	skipSet := map[string]bool{}
	for _, id := range skip {
		skipSet[id] = true
	}
	onlySet := map[string]bool{}
	for _, id := range only {
		onlySet[id] = true
	}
	var out []Rule
	for _, r := range rules {
		if len(only) > 0 && !onlySet[r.ID()] {
			continue
		}
		if skipSet[r.ID()] {
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

// RunOptions tunes Run's behavior beyond the plain rule sweep.
type RunOptions struct {
	// StaleIgnores additionally reports every well-formed ignore
	// directive (per named rule) that suppressed no finding during the
	// run, under the pseudo-rule "geolint".
	StaleIgnores bool
	// KnownRules, when non-nil, is the full rule-ID universe used to
	// validate ignore directives. A scoped run (-only/-skip) passes the
	// default set here so a directive naming an unchecked-but-real rule
	// is neither "unknown" nor "stale".
	KnownRules map[string]bool
	// UsageRules run for suppression accounting only: their findings mark
	// //geolint:ignore directives as used and are then dropped, and their
	// IDs count as checked for StaleIgnores. cmd/geolint passes the rules
	// deselected by -only/-skip here so -staleignores stays authoritative
	// on a scoped run: an ignore for a deselected rule is reported as
	// stale exactly when a full run would report it.
	UsageRules []Rule
}

// RunWith applies the rules to every package, filters findings through
// the ignore directives, appends diagnostics for malformed directives, and
// returns the surviving findings sorted by position. It proceeds in two
// phases: first every rule implementing FactExporter sees every pass,
// building the module-wide FactSet; then every rule checks every pass with
// the completed facts available on Pass.Facts.
func RunWith(passes []*Pass, rules []Rule, opt RunOptions) []Finding {
	if !wholeModule(passes) {
		rules = withoutDeadCode(rules)
		opt.UsageRules = withoutDeadCode(opt.UsageRules)
	}
	facts := NewFactSet()
	// Usage rules run the full fact/check pipeline alongside the
	// reporting rules; only their findings' fate differs below.
	allRules := append(append([]Rule{}, rules...), opt.UsageRules...)
	// Every pass — fact-only imports included — contributes declarations
	// and call sites to the module call graph before any rule runs, so a
	// deterministic root in internal/core sees callees from anywhere in
	// the loaded closure.
	for _, p := range passes {
		facts.AddCallGraphPass(p)
	}
	for _, r := range allRules {
		if fe, ok := r.(FactExporter); ok {
			for _, p := range passes {
				fe.ExportFacts(p, facts)
			}
		}
	}
	facts.FinalizeCallGraph()
	for _, r := range allRules {
		if ff, ok := r.(FactFinalizer); ok {
			ff.FinalizeFacts(facts)
		}
	}
	checked := map[string]bool{}
	for _, r := range allRules {
		checked[r.ID()] = true
	}
	known := opt.KnownRules
	if known == nil {
		known = checked
	}
	var out []Finding
	for _, p := range passes {
		p.Facts = facts
		if p.FactsOnly {
			continue
		}
		ig, malformed := collectIgnores(p, known)
		out = append(out, malformed...)
		for _, r := range rules {
			for _, f := range r.Check(p) {
				if ig.suppressed(f) {
					continue
				}
				out = append(out, f)
			}
		}
		// Usage rules mark their suppressions used and report nothing:
		// the stale-ignore sweep below then has the full picture.
		for _, r := range opt.UsageRules {
			for _, f := range r.Check(p) {
				ig.suppressed(f)
			}
		}
		if opt.StaleIgnores {
			out = append(out, ig.stale(checked)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		// Interprocedural rules can report several findings at one
		// declaration; order them by message so output is stable.
		return a.Message < b.Message
	})
	return out
}

// wholeModule reports whether the passes come from a load that matched
// every package of the module.
func wholeModule(passes []*Pass) bool {
	for _, p := range passes {
		if !p.WholeModule {
			return false
		}
	}
	return len(passes) > 0
}

// withoutDeadCode drops deadcode from rules for a partial load: with
// callers missing, it would call live functions dead. Dropped, it is
// neither checked nor counted for stale ignores.
func withoutDeadCode(rules []Rule) []Rule {
	var out []Rule
	for _, r := range rules {
		if _, ok := r.(*DeadCodeRule); !ok {
			out = append(out, r)
		}
	}
	return out
}

// --- shared AST helpers ---------------------------------------------------

// enclosingFuncName returns, for each node visited by fn, the name of the
// innermost enclosing named function declaration ("" at file scope or
// inside a function literal assigned at package level). It drives the
// Must* allowlist of libpanic.
func walkFuncs(file *ast.File, fn func(decl *ast.FuncDecl)) {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn(fd)
		}
	}
}

// isFloat reports whether t's underlying type is a floating-point basic
// type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
