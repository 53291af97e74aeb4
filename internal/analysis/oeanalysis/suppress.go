package oeanalysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Suppressor implements an analyzer-scoped suppression verb: a directive
// `// oevet:<verb> <reason>` on the same line as a would-be diagnostic, or
// on the line directly above it, suppresses that diagnostic. Unlike the
// driver-level //oevet:ignore (a counted, last-resort escape hatch pinned
// by the baseline), a verb suppression is a semantic claim the analyzer
// itself understands ("this allocation is pooled", "this charge shape is
// intentional") and stays next to the code it justifies.
//
// The reason is mandatory, and a suppressor that suppresses nothing is
// itself reported — stale justifications rot into lies otherwise.
type Suppressor struct {
	pass *Pass
	verb string
	// byLine indexes directives by file:line for the coverage lookup.
	byLine map[suppressKey][]*suppressEntry
	all    []*suppressEntry
}

type suppressKey struct {
	file string
	line int
}

type suppressEntry struct {
	pos    token.Position
	reason string
	used   bool
}

// NewSuppressor scans the pass's files for `oevet:<verb>` directives.
func NewSuppressor(pass *Pass, verb string) *Suppressor {
	s := &Suppressor{pass: pass, verb: verb, byLine: map[suppressKey][]*suppressEntry{}}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, d := range ParseDirectives(cg) {
				if d.Verb != verb {
					continue
				}
				e := &suppressEntry{
					pos:    pass.Fset.Position(d.Pos),
					reason: strings.Join(d.Args, " "),
				}
				k := suppressKey{e.pos.Filename, e.pos.Line}
				s.byLine[k] = append(s.byLine[k], e)
				s.all = append(s.all, e)
			}
		}
	}
	return s
}

// Suppressed reports whether a diagnostic at pos is covered by a directive
// on the same line or the line directly above, marking the directive used.
func (s *Suppressor) Suppressed(pos token.Pos) bool {
	p := s.pass.Fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, e := range s.byLine[suppressKey{p.Filename, line}] {
			e.used = true
			return true
		}
	}
	return false
}

// Reportf emits a diagnostic unless a suppression directive covers pos.
func (s *Suppressor) Reportf(pos token.Pos, format string, args ...any) {
	if s.Suppressed(pos) {
		return
	}
	s.pass.Reportf(pos, format, args...)
}

// Finish reports malformed (reason-less) and unused directives. Call it
// after every diagnostic of the analyzer has been issued.
func (s *Suppressor) Finish() {
	for _, e := range s.all {
		switch {
		case e.reason == "":
			s.pass.Reportf(posOf(s.pass, e.pos), "//oevet:%s requires a justification: //oevet:%s <reason>", s.verb, s.verb)
		case !e.used:
			s.pass.Reportf(posOf(s.pass, e.pos), "unused //oevet:%s directive (suppresses nothing); delete it", s.verb)
		}
	}
}

// posOf maps a token.Position back to a token.Pos inside the pass's file
// set, so meta-diagnostics carry the directive's own location.
func posOf(pass *Pass, p token.Position) token.Pos {
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf != nil && tf.Name() == p.Filename {
			if p.Offset < tf.Size() {
				return tf.Pos(p.Offset)
			}
		}
	}
	return token.NoPos
}

// ---------------------------------------------------------------------------
// Hot-path closure
// ---------------------------------------------------------------------------

// HotpathSet computes the set of functions on the declared hot path of a
// package: every function annotated `oevet:hotpath` plus its transitive
// same-package static callees, with the walk stopping at functions
// annotated `oevet:coldpath <reason>` (a documented exit from the hot path,
// e.g. a first-touch promotion or a media-repair ladder).
//
// Coldpath reasons are mandatory, but this helper does not report them
// (several analyzers share the hot-path set; allocfree owns the
// meta-diagnostic). The returned maps are keyed by the declared
// *types.Func; cold maps each coldpath function to its reason.
func HotpathSet(pass *Pass) (hot map[*types.Func]*ast.FuncDecl, cold map[*types.Func]string) {
	info := pass.TypesInfo
	decls := map[*types.Func]*ast.FuncDecl{}
	hot = map[*types.Func]*ast.FuncDecl{}
	cold = map[*types.Func]string{}
	var roots []*types.Func
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
			decls[obj] = fn
			for _, d := range FuncDirectives(fn) {
				switch d.Verb {
				case "hotpath":
					roots = append(roots, obj)
				case "coldpath":
					cold[obj] = strings.Join(d.Args, " ")
				}
			}
		}
	}
	// BFS over same-package static call edges (including calls made inside
	// nested function literals: a literal defined on the hot path runs on
	// the hot path).
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if _, seen := hot[fn]; seen {
			continue
		}
		if _, isCold := cold[fn]; isCold {
			continue
		}
		decl := decls[fn]
		if decl == nil {
			continue
		}
		hot[fn] = decl
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := CalleeFunc(info, call)
			if callee != nil && callee.Pkg() == pass.Pkg {
				queue = append(queue, callee)
			}
			return true
		})
	}
	return hot, cold
}
