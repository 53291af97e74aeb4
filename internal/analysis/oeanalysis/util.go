package oeanalysis

import (
	"go/ast"
	"go/types"
)

// Lock names one participant in the global lock hierarchy.
type Lock struct {
	Name string
	Rank int
}

// ChargeBound bounds how many times one device cost class is charged across
// the paths through a function: Min over non-error paths, Max over every
// path. Counts saturate at 2, which reads as "two or more".
type ChargeBound struct {
	Min, Max int
}

// ChargeSummary bounds the simulated-time charges a call performs, one
// interval per device.Timed cost class.
type ChargeSummary struct {
	Read, Write, StreamRead, StreamWrite ChargeBound
}

// Zero reports whether no class can be charged on any path.
func (s ChargeSummary) Zero() bool {
	return s.Read.Max == 0 && s.Write.Max == 0 && s.StreamRead.Max == 0 && s.StreamWrite.Max == 0
}

// Facts is the cross-package side channel of the suite: analyzers export
// what annotations declare about a package's objects while that package is
// being analyzed, and later packages (the driver analyzes in dependency
// order) consult them at call sites whose declarations live elsewhere.
// Keys are types.Func.FullName(), which is identical whether the object was
// type-checked from source or loaded from export data.
type Facts struct {
	// Acquires maps a function to the ranked locks calling it may acquire
	// (transitively, as computed by lockorder plus oevet:acquires).
	Acquires map[string][]Lock
	// Holds maps a function to the ranked locks its callers must already
	// hold when invoking it (from oevet:holds), for the must-hold check.
	Holds map[string][]Lock
	// PMemClass maps a function to its durability class: "write", "flush"
	// or "publish" (from the oevet:pmem-* annotations).
	PMemClass map[string]string
	// Charges maps a function to the charge-count intervals chargeflow
	// computed for its body (or its oevet:charge contract when the body is
	// not in the analyzed set).
	Charges map[string]ChargeSummary
	// Allocates maps a function to a one-line description of its first
	// direct, non-error-path allocation site, so hot-path callers in
	// dependent packages see one level into their dependencies.
	Allocates map[string]string
	// FenceClass maps a function to its epoch-fence role: "need" (calling
	// it discards state the caller must fence), "apply" (it bumps the
	// epoch), or "park" (it records the obligation for a later apply).
	FenceClass map[string]string
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{
		Acquires:   make(map[string][]Lock),
		Holds:      make(map[string][]Lock),
		PMemClass:  make(map[string]string),
		Charges:    make(map[string]ChargeSummary),
		Allocates:  make(map[string]string),
		FenceClass: make(map[string]string),
	}
}

// CalleeFunc resolves the static callee of a call expression, or nil when
// the callee is not a declared function/method (function values, interface
// methods, conversions, builtins).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if sub, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = sub
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// FieldVar resolves the struct field a selector-like expression denotes
// (seeing through index expressions and parens, e.g. s.stripes[i] -> field
// stripes), or nil when expr is not a field selection.
func FieldVar(info *types.Info, expr ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					return v
				}
			}
			// Package-qualified or method selection: not a field.
			return nil
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// IsErrorPathReturn reports whether the return statement sits inside an if
// statement whose condition contains an `x != nil` comparison — the
// idiomatic failure path, which durability checks must not flag (a failed
// write has nothing to flush).
func IsErrorPathReturn(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifStmt, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		if HasNilCheck(ifStmt.Cond) {
			return true
		}
	}
	return false
}

// HasNilCheck reports whether a condition contains an `x == nil` or
// `x != nil` comparison — the idiomatic failure-path guard that several
// analyzers exempt (allocations and missing charges on a path that only
// exists to surface an error are not hot-path regressions).
func HasNilCheck(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			if b.Op.String() == "!=" || b.Op.String() == "==" {
				if isNilIdent(b.X) || isNilIdent(b.Y) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
