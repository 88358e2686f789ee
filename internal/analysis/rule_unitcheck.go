package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// UnitCheckRule is the dimensional-analysis rule over the α–β model's
// typed quantities (internal/units, marked //geolint:unit). Go's type
// system already rejects `latency + bandwidth` once the operands are
// defined types; this rule closes the holes that conversions reopen:
//
//  1. Mixed-unit arithmetic laundered through float64: both operands of
//     +, -, *, /, or a comparison were stripped from DIFFERENT unit types
//     via float64(x) or x.Float(). `lat.Float() + bw.Float()` type-checks
//     but adds seconds to bytes/second — exactly the corruption the unit
//     types exist to prevent. Same-unit laundering (ratios, sums of two
//     latencies) is dimensionally sound and exempt.
//  2. Direct unit-to-unit conversions, e.g. units.Cost(someSeconds):
//     type-correct because both share the float64 underlying type, but it
//     bypasses the named crossing helpers (AsCost, AsSeconds) that make
//     dimension changes searchable and auditable.
//  3. Unit-typed products and quotients: seconds*seconds or bytes/bytes
//     type-checks yet yields a value whose static type no longer matches
//     its dimension (seconds², a dimensionless ratio). Use Scale/Div for
//     dimensionless factors and Float() for ratios.
//  4. Bare numeric literals adopted into a unit type by implicit
//     conversion — `Options{PairProbeSeconds: 5}` — instead of the explicit
//     constructor units.Seconds(5) that states the dimension at the
//     assignment site. Zero literals are exempt (0 is 0 in every unit),
//     as are literals wrapped in an explicit conversion.
//
// internal/units itself is exempt: its helpers are the one blessed place
// where raw float64 arithmetic between dimensions happens, each helper
// performing exactly one floating-point operation.
type UnitCheckRule struct{}

func (*UnitCheckRule) ID() string { return "unitcheck" }

func (*UnitCheckRule) Doc() string {
	return "dimensional analysis of //geolint:unit types: no float64-laundered mixed-unit arithmetic, unit-to-unit conversions, or bare literals where a unit is wanted"
}

// ExportFacts records every type declared with a //geolint:unit directive,
// making units declared in internal/units visible to checks in every
// importing package.
func (r *UnitCheckRule) ExportFacts(p *Pass, fs *FactSet) {
	exportUnitFacts(p, fs)
}

func (r *UnitCheckRule) Check(p *Pass) []Finding {
	if p.Info == nil || p.Facts == nil || strings.HasSuffix(p.Path, "/internal/units") {
		return nil
	}
	var out []Finding
	for _, sf := range p.Files {
		if sf.Test {
			continue
		}
		// blessed marks expressions appearing as the operand of an
		// explicit conversion: units.Seconds(5) is the constructor idiom,
		// not a bare literal. Parents are visited before children, so the
		// set is populated before the literal itself is inspected.
		blessed := map[ast.Expr]bool{}
		ast.Inspect(sf.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				r.checkCall(p, n, blessed, &out)
			case *ast.BinaryExpr:
				r.checkBinary(p, n, &out)
				r.checkLiteral(p, n, blessed, &out)
			case *ast.BasicLit, *ast.UnaryExpr, *ast.ParenExpr:
				r.checkLiteral(p, n.(ast.Expr), blessed, &out)
			}
			return true
		})
	}
	return out
}

// checkCall handles explicit conversions: it blesses the operand (so a
// literal inside units.Seconds(5) is not reported as bare) and flags
// unit-to-unit conversions that bypass the crossing helpers.
func (r *UnitCheckRule) checkCall(p *Pass, call *ast.CallExpr, blessed map[ast.Expr]bool, out *[]Finding) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	blessed[call.Args[0]] = true
	dst := p.Facts.UnitType(tv.Type)
	src := p.Facts.UnitType(p.Info.Types[call.Args[0]].Type)
	if dst != nil && src != nil && dst != src {
		*out = append(*out, Finding{
			Rule: "unitcheck",
			Pos:  p.position(call.Pos()),
			Message: "direct conversion from " + src.Name() + " to " + dst.Name() +
				" bypasses the unit crossing helpers; add or use a named converter (like Seconds.AsCost)",
		})
	}
}

// checkBinary flags the two arithmetic holes on binary expressions:
// float64-laundered mixed-unit operands, and unit-typed products or
// quotients whose result's static type no longer matches its dimension.
func (r *UnitCheckRule) checkBinary(p *Pass, be *ast.BinaryExpr, out *[]Finding) {
	switch be.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO,
		token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	tx, ty := p.Info.Types[be.X], p.Info.Types[be.Y]
	if tx.Value != nil && ty.Value != nil {
		return // constant folding carries no runtime quantity
	}

	// Hole 1: both operands laundered from unit types, and the units
	// disagree. `lat.Float() + bw.Float()` adds seconds to bytes/second.
	lx, ly := r.launderedUnit(p, be.X), r.launderedUnit(p, be.Y)
	if lx != nil && ly != nil && lx != ly {
		*out = append(*out, Finding{
			Rule: "unitcheck",
			Pos:  p.position(be.OpPos),
			Message: "mixed-unit " + be.Op.String() + " laundered through float64: left is " + lx.Name() +
				", right is " + ly.Name() + "; use the typed helpers in internal/units",
		})
		return
	}

	// Hole 3: products and quotients of unit-typed operands. These only
	// type-check when both sides are the SAME unit, and then the result's
	// static type lies about its dimension (seconds*seconds is typed
	// Seconds but means seconds²; bytes/bytes is a dimensionless ratio).
	if (be.Op == token.MUL || be.Op == token.QUO) && tx.Value == nil && ty.Value == nil {
		ux := p.Facts.UnitType(tx.Type)
		uy := p.Facts.UnitType(ty.Type)
		if ux != nil && uy != nil {
			what := "product"
			hint := "use Scale with a dimensionless factor"
			if be.Op == token.QUO {
				what = "quotient"
				hint = "a same-unit ratio is dimensionless; compute it with Float()"
			}
			*out = append(*out, Finding{
				Rule:    "unitcheck",
				Pos:     p.position(be.OpPos),
				Message: what + " of two " + ux.Name() + " values has a static type that misstates its dimension; " + hint,
			})
		}
	}
}

// launderedUnit returns the unit type a float64 expression was stripped
// from: float64(x) conversions and x.Float() method calls on unit-typed
// receivers. Nil when e carries no unit pedigree.
func (r *UnitCheckRule) launderedUnit(p *Pass, e ast.Expr) *types.TypeName {
	e = ast.Unparen(e)
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	// float64(unitExpr)
	if len(call.Args) == 1 {
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				if _, isNamed := tv.Type.(*types.Named); !isNamed {
					return p.Facts.UnitType(p.Info.Types[call.Args[0]].Type)
				}
			}
		}
	}
	// unitExpr.Float()
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Float" && len(call.Args) == 0 {
		return p.Facts.UnitType(p.Info.Types[sel.X].Type)
	}
	return nil
}

// checkLiteral flags hole 4: a bare numeric constant whose type the
// checker resolved to a unit type through implicit conversion, outside an
// explicit constructor. Named constants (units.Seconds(0.25) at their
// declaration) are built from blessed conversions and never reach here as
// bare literals.
func (r *UnitCheckRule) checkLiteral(p *Pass, e ast.Expr, blessed map[ast.Expr]bool, out *[]Finding) {
	if !isBareNumeric(e) {
		return
	}
	// Only the outermost bare-numeric expression reports (or is blessed by
	// a conversion); its parts inherit that status. Parents are inspected
	// before children, so marking here precedes the parts' own visits.
	blessParts(e, blessed)
	if blessed[e] {
		return
	}
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return
	}
	u := p.Facts.UnitType(tv.Type)
	if u == nil {
		return
	}
	if constant.Sign(tv.Value) == 0 {
		return // zero is zero in every unit
	}
	*out = append(*out, Finding{
		Rule: "unitcheck",
		Pos:  p.position(e.Pos()),
		Message: "bare numeric literal adopts unit type " + u.Name() +
			" by implicit conversion; construct it explicitly with " + u.Name() + "(...)",
	})
}

// blessParts marks e's direct sub-expressions as covered, so only the
// outermost bare-numeric expression is considered for reporting.
func blessParts(e ast.Expr, blessed map[ast.Expr]bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		blessed[e.X] = true
	case *ast.UnaryExpr:
		blessed[e.X] = true
	case *ast.BinaryExpr:
		blessed[e.X] = true
		blessed[e.Y] = true
	}
}

// isBareNumeric reports whether e is built purely from numeric literals:
// 5, -5, (5), 8 << 20. An expression mentioning any identifier is not
// bare — named constants state their dimension at their declaration.
func isBareNumeric(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Kind == token.INT || e.Kind == token.FLOAT
	case *ast.ParenExpr:
		return isBareNumeric(e.X)
	case *ast.UnaryExpr:
		return (e.Op == token.ADD || e.Op == token.SUB) && isBareNumeric(e.X)
	case *ast.BinaryExpr:
		return isBareNumeric(e.X) && isBareNumeric(e.Y)
	}
	return false
}
