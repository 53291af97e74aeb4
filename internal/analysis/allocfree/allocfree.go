// Package allocfree is the compile-time counterpart of the 0-alloc
// benchmark gate (TestPullPushZeroAllocs, BenchmarkEnginePull -benchmem):
// the batched pull/push hot path must not allocate per operation, and this
// analyzer reports every construct on the declared hot path that can reach
// the heap, each one either fixed or justified in place.
//
// Roots are annotated `// oevet:hotpath`; the analyzer walks their
// same-package static call closure, stopping at functions annotated
// `// oevet:coldpath <reason>` (first-touch promotion, media repair — paths
// the steady-state benchmark never takes). Inside the closure it flags:
//
//   - &composite literals (escape candidates), make, new;
//   - function literals that escape (passed as arguments, assigned, or
//     started with go) — immediately-called and directly-deferred literals
//     are open-coded on the stack and exempt;
//   - interface conversions of non-pointer concrete values (boxing);
//   - fmt.* formatting and errors.New (allocate by contract);
//   - append (may grow the backing array) and string concatenation /
//     string<->[]byte conversions;
//   - range over a map (hash-walk on the hot path; also order-unstable);
//   - calls into dependency packages whose exported fact records a direct
//     allocation site (one level deep; deeper chains stay pinned by the
//     benchmark gate).
//
// Sites under an `err != nil` (or `x == nil`) guard are exempt: the failure
// path may allocate its error. Deliberate allocations are justified in
// place with `//oevet:alloc-ok <reason>` (reason mandatory, unused
// directives reported) — the justification inventory is the document the
// benchmark gate cannot produce.
package allocfree

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"

	"openembedding/internal/analysis/oeanalysis"
)

// Analyzer flags heap-allocating constructs on oevet:hotpath call paths.
var Analyzer = &oeanalysis.Analyzer{
	Name: "allocfree",
	Doc:  "check that oevet:hotpath call closures stay allocation-free (the static counterpart of the 0-alloc benchmark gate)",
	Run:  run,
}

func run(pass *oeanalysis.Pass) error {
	info := pass.TypesInfo
	supp := oeanalysis.NewSuppressor(pass, "alloc-ok")

	hot, cold := oeanalysis.HotpathSet(pass)
	for fn, reason := range cold {
		if reason == "" {
			if decl := findDecl(pass, info, fn); decl != nil {
				pass.Reportf(decl.Pos(), "//oevet:coldpath requires a justification: //oevet:coldpath <reason>")
			}
		}
	}

	// Export one level of allocation visibility for dependent packages:
	// the first direct, non-error-path allocation site of every function.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := info.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			if desc := firstAllocSite(pass, info, fn); desc != "" {
				pass.Facts.Allocates[obj.FullName()] = desc
			}
		}
	}

	for fn, decl := range hot {
		checkHot(pass, info, supp, fn, decl)
	}
	supp.Finish()
	return nil
}

func findDecl(pass *oeanalysis.Pass, info *types.Info, fn *types.Func) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj, _ := info.Defs[fd.Name].(*types.Func); obj == fn {
					return fd
				}
			}
		}
	}
	return nil
}

// walkStack runs fn over every node in body with the ancestor stack
// available, the ast.Inspect push/pop protocol made explicit.
func walkStack(body ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// onErrorPath reports whether the node sits inside the body of an if whose
// condition nil-checks (the idiomatic failure path).
func onErrorPath(stack []ast.Node) bool {
	for i, n := range stack {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || !oeanalysis.HasNilCheck(ifStmt.Cond) {
			continue
		}
		// Only the guarded body is the error path, not the else branch.
		if i+1 < len(stack) && stack[i+1] == ifStmt.Body {
			return true
		}
	}
	return false
}

// allocDenylist names functions that allocate by contract.
var allocDenylist = map[string]bool{
	"fmt.Sprintf": true, "fmt.Errorf": true, "fmt.Sprint": true,
	"fmt.Sprintln": true, "fmt.Fprintf": true, "fmt.Printf": true,
	"fmt.Println": true, "fmt.Print": true, "fmt.Fprintln": true,
	"errors.New": true,
}

// classify returns a report message for an allocating construct, or "".
// parent disambiguates contexts (immediate call, defer, go).
func classify(info *types.Info, n ast.Node, stack []ast.Node) string {
	parent := ast.Node(nil)
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	switch e := n.(type) {
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			if _, isLit := ast.Unparen(e.X).(*ast.CompositeLit); isLit {
				return "&composite literal escapes to the heap"
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make":
				return "make allocates"
			case "new":
				return "new allocates"
			case "append":
				return "append may grow the backing array"
			}
		}
		if callee := oeanalysis.CalleeFunc(info, e); callee != nil && callee.Pkg() != nil {
			if allocDenylist[callee.Pkg().Name()+"."+callee.Name()] {
				return callee.Pkg().Name() + "." + callee.Name() + " allocates (formatting/boxing)"
			}
		}
		// Conversions: string <-> []byte/[]rune and boxing into an
		// interface type.
		if len(e.Args) == 1 {
			if conv := conversionAlloc(info, e); conv != "" {
				return conv
			}
		}
	case *ast.FuncLit:
		if p, ok := parent.(*ast.CallExpr); ok {
			if p.Fun != n {
				return "function literal passed as an argument escapes (closure allocation)"
			}
			// Immediately-called literal: the statement context decides.
			if len(stack) >= 2 {
				switch gp := stack[len(stack)-2].(type) {
				case *ast.GoStmt:
					if gp.Call == p {
						return "go func literal allocates its closure per spawn (and `go f.method(arg)` on a pooled frame still allocates once per goroutine spawned); hand the work to an already-running worker, or budget the spawns with //oevet:alloc-ok"
					}
				case *ast.DeferStmt:
					if gp.Call == p {
						return "" // direct defer: open-coded, stack
					}
				}
			}
			return "" // func(){...}() on the spot: inlined, stack
		}
		return "function literal escapes (closure allocation)"
	case *ast.BinaryExpr:
		if e.Op.String() == "+" {
			if t, ok := info.Types[e.X]; ok && t.Type != nil {
				if b, isBasic := t.Type.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
					return "string concatenation allocates"
				}
			}
		}
	case *ast.RangeStmt:
		if t, ok := info.Types[e.X]; ok && t.Type != nil {
			if _, isMap := t.Type.Underlying().(*types.Map); isMap {
				return "range over a map on the hot path (hash-walk cost, order-unstable)"
			}
		}
	}
	return ""
}

// conversionAlloc reports allocating conversions: string<->[]byte/[]rune
// and boxing a non-pointer concrete value into an interface.
func conversionAlloc(info *types.Info, call *ast.CallExpr) string {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return ""
	}
	dst := tv.Type
	src := info.Types[call.Args[0]].Type
	if src == nil {
		return ""
	}
	if isConstExpr(info, call.Args[0]) {
		return "" // constant conversions fold at compile time
	}
	if tv, ok := info.Types[call.Args[0]]; ok && tv.IsNil() {
		return "" // error(nil) and friends: a nil interface word, no box
	}
	dstU, srcU := dst.Underlying(), src.Underlying()
	if isString(dstU) && isByteOrRuneSlice(srcU) {
		return "[]byte/[]rune to string conversion allocates"
	}
	if isByteOrRuneSlice(dstU) && isString(srcU) {
		return "string to []byte/[]rune conversion allocates"
	}
	if types.IsInterface(dstU) && !types.IsInterface(srcU) {
		if _, isPtr := srcU.(*types.Pointer); !isPtr {
			return "interface conversion boxes a non-pointer value"
		}
	}
	return ""
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// firstAllocSite returns a short description of the first direct,
// non-error-path allocation in fn's body, for the cross-package fact.
func firstAllocSite(pass *oeanalysis.Pass, info *types.Info, fn *ast.FuncDecl) string {
	desc := ""
	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		if desc != "" {
			return false
		}
		if onErrorPath(stack) {
			return true
		}
		if msg := classify(info, n, stack); msg != "" {
			p := pass.Fset.Position(n.Pos())
			desc = fmt.Sprintf("%s at %s:%d", msg, filepath.Base(p.Filename), p.Line)
			return false
		}
		return true
	})
	return desc
}

func checkHot(pass *oeanalysis.Pass, info *types.Info, supp *oeanalysis.Suppressor, fn *types.Func, decl *ast.FuncDecl) {
	walkStack(decl.Body, func(n ast.Node, stack []ast.Node) bool {
		if onErrorPath(stack) {
			return true
		}
		if msg := classify(info, n, stack); msg != "" {
			supp.Reportf(n.Pos(), "hot path (%s): %s", fn.Name(), msg)
			return true
		}
		// One level into dependency packages via facts.
		if call, ok := n.(*ast.CallExpr); ok {
			callee := oeanalysis.CalleeFunc(info, call)
			if callee != nil && callee.Pkg() != nil && callee.Pkg() != pass.Pkg {
				if desc, found := pass.Facts.Allocates[callee.FullName()]; found {
					supp.Reportf(call.Pos(), "hot path (%s): call to %s allocates (%s)", fn.Name(), callee.Name(), desc)
				}
			}
		}
		return true
	})
}
