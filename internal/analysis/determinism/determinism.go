// Package determinism mechanizes the bit-reproducibility contract: every
// Table/Figure reproduction must produce the same bytes on every run, and a
// chaos run must replay from its printed seed alone, so packages marked
//
//	//oevet:deterministic-package
//
// (internal/sim, internal/core, internal/experiments, internal/faultinject)
// must not consult the wall clock or a random number generator, or let map
// iteration order leak into their results.
//
// Three checks:
//
//   - wall clock: calls to time.Now / time.Since / time.Until are reported
//     (simulated time lives in internal/simclock). time.Sleep and Duration
//     arithmetic are fine: executing a delay is deterministic, deciding
//     from the clock is not;
//   - randomness: every math/rand and math/rand/v2 call is reported,
//     constructors and *rand.Rand methods included — a seeded generator is
//     still a stateful stream whose draw order depends on goroutine
//     interleaving once two streams share it — and so is every crypto/rand
//     call (OS entropy never replays). Randomness is a stateless hash of
//     the seed and the decision's coordinates (splitmix64);
//   - map iteration: `for ... range m` over a map is reported unless the
//     loop matches a provably order-independent shape:
//     1. the sorted-keys idiom — the body is a single `s = append(s, k)`
//     and s is passed to a sort/slices sorting call later in the same
//     function; or
//     2. every statement is order-independent: fresh `:=` bindings,
//     writes into another map (`m2[k] = v`), integer accumulation
//     (`n++`, `n += e`), `delete`, `continue`, and if-statements (with
//     call-free conditions) recursively composed of the same shapes —
//     a per-key max merge (`if p, ok := m2[k]; !ok || v > p { m2[k] = v }`)
//     is the model.
//
// Anything else needs an `//oevet:ignore <reason>` stating why order cannot
// reach the output.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"openembedding/internal/analysis/oeanalysis"
)

// Analyzer flags nondeterminism sources in marked packages.
var Analyzer = &oeanalysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clock, math/rand, crypto/rand and map-order dependent loops in //oevet:deterministic-package packages",
	Run:  run,
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *oeanalysis.Pass) error {
	if !oeanalysis.PackageMarked(pass.Files, "deterministic-package") {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, info, fn.Body)
		}
	}
	return nil
}

func checkFunc(pass *oeanalysis.Pass, info *types.Info, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, info, n)
		case *ast.RangeStmt:
			checkRange(pass, info, n, body)
		}
		return true
	})
}

func checkCall(pass *oeanalysis.Pass, info *types.Info, call *ast.CallExpr) {
	fn := oeanalysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	pkgLevel := sig != nil && sig.Recv() == nil
	switch fn.Pkg().Path() {
	case "time":
		if pkgLevel && wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "call to time.%s in a deterministic package; use the simulated clock (internal/simclock)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		what := "rand." + fn.Name()
		if !pkgLevel {
			what = "(rand stream)." + fn.Name()
		}
		pass.Reportf(call.Pos(), "call to %s in a deterministic package; derive it as a stateless hash of the seed (splitmix64)", what)
	case "crypto/rand":
		pass.Reportf(call.Pos(), "call to crypto/rand %s in a deterministic package; OS entropy can never replay from a seed", fn.Name())
	}
}

func checkRange(pass *oeanalysis.Pass, info *types.Info, rng *ast.RangeStmt, scope *ast.BlockStmt) {
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if sortedKeysIdiom(info, rng, scope) {
		return
	}
	if stmtsOrderIndependent(info, rng.Body.List) {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration order can reach the result; collect and sort the keys, restructure into an order-independent reduction, or justify with //oevet:ignore")
}

// sortedKeysIdiom recognizes `for k := range m { s = append(s, k) }` with a
// later sort of s in the same function.
func sortedKeysIdiom(info *types.Info, rng *ast.RangeStmt, scope *ast.BlockStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	lhs, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	if arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident); !ok || objOf(info, arg0) == nil || objOf(info, arg0) != objOf(info, lhs) {
		return false
	}
	target := objOf(info, lhs)
	// A sort call anywhere in the function that mentions the slice.
	sorted := false
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted {
			return !sorted
		}
		fn := oeanalysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			ast.Inspect(a, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && objOf(info, id) == target {
					sorted = true
				}
				return !sorted
			})
		}
		return !sorted
	})
	return sorted
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// stmtsOrderIndependent reports whether executing the statements for the
// map's elements in any order yields the same final state.
func stmtsOrderIndependent(info *types.Info, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !stmtOrderIndependent(info, s) {
			return false
		}
	}
	return true
}

func stmtOrderIndependent(info *types.Info, s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		if st.Tok == token.DEFINE {
			return true // fresh per-iteration bindings
		}
		switch st.Tok {
		case token.ASSIGN:
			// Plain assignment is only commutative when it writes into a
			// map (per-key slots; last-writer races are a different bug).
			for _, lhs := range st.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					return false
				}
				tv, ok := info.Types[idx.X]
				if !ok {
					return false
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return false
				}
			}
			return true
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Integer accumulation commutes; float accumulation does not
			// (bit-level associativity), so only integer LHS qualifies.
			for _, lhs := range st.Lhs {
				if !isIntegerExpr(info, lhs) {
					return false
				}
			}
			return true
		}
		return false
	case *ast.IncDecStmt:
		return isIntegerExpr(info, st.X)
	case *ast.ExprStmt:
		// delete(m, k) is order-independent; any other call is opaque.
		call, ok := ast.Unparen(st.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "delete" && info.Uses[id] != nil && info.Uses[id].Pkg() == nil
	case *ast.IfStmt:
		if st.Init != nil && !stmtOrderIndependent(info, st.Init) {
			return false
		}
		if hasCall(st.Cond) {
			return false
		}
		if !stmtsOrderIndependent(info, st.Body.List) {
			return false
		}
		if st.Else != nil {
			return stmtOrderIndependent(info, st.Else)
		}
		return true
	case *ast.BlockStmt:
		return stmtsOrderIndependent(info, st.List)
	case *ast.BranchStmt:
		return st.Tok == token.CONTINUE
	default:
		return false
	}
}

func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func hasCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}
