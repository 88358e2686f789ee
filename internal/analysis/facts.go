package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// unitDirective marks a defined type as a physical unit of the α–β cost
// model. It goes on the type declaration's doc comment:
//
//	//geolint:unit
//	type Seconds float64
//
// The facts phase exports every marked type before any rule checks, so
// unitcheck recognizes units declared in internal/units from every
// importing package.
const unitDirective = "//geolint:unit"

// FactSet is module-wide knowledge collected from all passes before rules
// run their checks. The loader type-checks each package exactly once and
// caches it, so a types.Object seen from an importing package is the same
// pointer as the one seen in its declaring package — facts can be keyed on
// object identity.
type FactSet struct {
	unitTypes map[*types.TypeName]bool

	// cg accumulates the module-wide call graph (callgraph.go). The
	// engine feeds every pass into it before the rule fact phase.
	cg *cgBuilder

	// Backward-taint facts (taint.go): annotated roots and boundaries,
	// per-function sources, line-level excuses, and malformed-annotation
	// diagnostics keyed by pass path — one instance per taint rule.
	det   *taintFacts // detcheck (rule_detcheck.go)
	alloc *taintFacts // allocsafe (rule_allocsafe.go)

	// locksafe facts (rule_locksafe.go): functions that block directly,
	// and the transitive blocking closure computed by the finalizer.
	blockDirect map[*types.Func]BlockFact
	blocking    map[*types.Func]BlockFact
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{
		unitTypes:   map[*types.TypeName]bool{},
		cg:          newCGBuilder(),
		det:         newTaintFacts(detSpec),
		alloc:       newTaintFacts(allocSpec),
		blockDirect: map[*types.Func]BlockFact{},
		blocking:    map[*types.Func]BlockFact{},
	}
}

// ExportUnitType records obj as a unit type.
func (fs *FactSet) ExportUnitType(obj *types.TypeName) {
	if obj != nil {
		fs.unitTypes[obj] = true
	}
}

// UnitType returns the declaring TypeName when t is a recorded unit type
// (directly or through a type alias, which resolves to the same named
// type), and nil otherwise.
func (fs *FactSet) UnitType(t types.Type) *types.TypeName {
	if fs == nil || t == nil {
		return nil
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if obj := named.Obj(); fs.unitTypes[obj] {
		return obj
	}
	return nil
}

// FactExporter is implemented by rules that need module-wide facts before
// checking. RunWith drives two phases: first every exporter sees every pass,
// then every rule checks every pass with the completed FactSet on
// Pass.Facts.
type FactExporter interface {
	ExportFacts(p *Pass, fs *FactSet)
}

// FactFinalizer is implemented by rules that derive whole-module facts
// from the completed export phase — e.g. locksafe's transitive blocking
// closure needs the finished call graph. RunWith calls FinalizeFacts exactly
// once per rule, after every exporter has seen every pass and the call
// graph has been finalized, and before any Check.
type FactFinalizer interface {
	FinalizeFacts(fs *FactSet)
}

// exportUnitFacts scans the pass's type declarations for //geolint:unit
// directives and exports the marked types. Shared by UnitCheckRule and any
// future dimensional rule.
func exportUnitFacts(p *Pass, fs *FactSet) {
	if p.Info == nil {
		return
	}
	for _, sf := range p.Files {
		if sf.Test {
			continue
		}
		for _, decl := range sf.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasUnitDirective(gd.Doc) && !hasUnitDirective(ts.Doc) {
					continue
				}
				if obj, ok := p.Info.Defs[ts.Name].(*types.TypeName); ok {
					fs.ExportUnitType(obj)
				}
			}
		}
	}
}

// hasUnitDirective reports whether the comment group carries the
// //geolint:unit directive on a line of its own.
func hasUnitDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.TrimSpace(c.Text) == unitDirective {
			return true
		}
	}
	return false
}
