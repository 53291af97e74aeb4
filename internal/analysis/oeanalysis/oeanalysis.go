// Package oeanalysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver surface, built on nothing but the
// standard library so the repository's custom analyzers (cmd/oevet) work in
// a hermetic build.
//
// The shape deliberately mirrors x/tools: an Analyzer owns a Run function
// that receives a Pass (one type-checked package) and reports Diagnostics.
// If the module ever vendors x/tools, the analyzers port over by swapping
// the import path.
package oeanalysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description: the invariant the analyzer
	// mechanizes and the annotation grammar it consumes.
	Doc string
	// Run inspects one package and reports violations through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is shared across every package of one driver run; packages are
	// analyzed in dependency order, so facts exported while analyzing a
	// dependency are visible at call sites in its dependents.
	Facts *Facts

	diags []Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the collected reports in source order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool {
		a, b := p.diags[i].Pos, p.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return p.diags
}

// Run executes one analyzer over an already type-checked package. facts may
// be nil for a single-package run (the analyzer corpora).
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *Facts) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFacts()
	}
	pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, Facts: facts}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return pass.Diagnostics(), nil
}

// ---------------------------------------------------------------------------
// Annotation grammar
//
// Invariants the type system cannot express are declared in comments with an
// `oevet:` prefix (both `// oevet:...` and `//oevet:...` spellings are
// accepted). The grammar is:
//
//	// oevet:lockrank <name> <rank>   on a mutex(-like) struct field: the
//	                                  field participates in the global lock
//	                                  hierarchy at integer <rank>; locks must
//	                                  be acquired in strictly increasing rank.
//	// oevet:acquires <name> <rank>   on a func decl: calling it may acquire
//	                                  the named lock (used for cross-package
//	                                  edges where the body is not analyzed).
//	// oevet:holds <name> <rank>      on a func decl: callers invoke it with
//	                                  the named lock already held.
//	// oevet:pmem-write               on a func decl: it stores to simulated
//	                                  PMem without making the data durable.
//	// oevet:pmem-flush               on a func decl: it persists previously
//	                                  written data (CLWB+SFENCE analog).
//	// oevet:pmem-publish             on a func decl: it publishes a commit
//	                                  word/version header that makes earlier
//	                                  writes reachable after recovery.
//	//oevet:deterministic-package     anywhere in a file: the whole package
//	                                  must be bit-reproducible (no wall
//	                                  clock, no global rand, no map-order
//	                                  dependent output).
//	// oevet:charge <class>           on a func decl: its contract is to
//	                                  charge the simulated-time meter exactly
//	                                  once with <class> (read, write,
//	                                  stream-read, stream-write) on every
//	                                  non-error path, and never with another
//	                                  class (chargeflow).
//	// oevet:charge-free              on a func decl: it must never reach a
//	                                  device.Timed charge on any path.
//	// oevet:hotpath                  on a func decl: it is a 0-alloc,
//	                                  stream-charge-free hot-path root; the
//	                                  allocfree and chargeflow analyzers walk
//	                                  its same-package call closure.
//	// oevet:coldpath <reason>        on a func decl: the hot-path walk stops
//	                                  here (first-touch promotion, media
//	                                  repair, ...). The reason is mandatory.
//	// oevet:fence-need               on a func decl: calling it discards
//	                                  durable or DRAM state; the caller must
//	                                  reach an epoch fence before returning
//	                                  (or be fence-need itself, passing the
//	                                  obligation on).
//	// oevet:fence-apply              on a func decl: it applies the fence
//	                                  (bumps the recovery epoch).
//	// oevet:fence-park               on a func decl: it parks the obligation
//	                                  for a later apply (pending-fence flag,
//	                                  loss accumulator).
//	// oevet:fence-obligated          on a func decl: it is entered with a
//	                                  pending fence obligation (an integrity
//	                                  callback) that every path must
//	                                  discharge.
//	//oevet:charge-ok <reason>        on (or immediately above) a flagged
//	//oevet:alloc-ok <reason>         line: analyzer-scoped suppressions for
//	//oevet:fence-ok <reason>         chargeflow, allocfree, epochfence and
//	//oevet:errwrap-ok <reason>       errwrap. The reason is mandatory and
//	                                  unused directives are themselves
//	                                  reported (see Suppressor).
//	//oevet:ignore <reason>           on (or immediately above) a flagged
//	                                  line: suppress the diagnostic. The
//	                                  reason is mandatory; cmd/oevet counts
//	                                  ignores against a pinned baseline.
// ---------------------------------------------------------------------------

// Directive is one parsed `oevet:` annotation.
type Directive struct {
	Verb string   // "lockrank", "acquires", "holds", "pmem-write", ...
	Args []string // whitespace-split arguments after the verb
	Pos  token.Pos
}

// ParseDirectives extracts every oevet: directive from a comment group.
func ParseDirectives(cg *ast.CommentGroup) []Directive {
	if cg == nil {
		return nil
	}
	var out []Directive
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if !strings.HasPrefix(text, "oevet:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(text, "oevet:"))
		if len(fields) == 0 {
			continue
		}
		// "oevet:lockrank name 10" and "oevet: lockrank name 10" both parse;
		// the verb may also be glued to the prefix ("oevet:lockrank").
		verb := fields[0]
		out = append(out, Directive{Verb: verb, Args: fields[1:], Pos: c.Pos()})
	}
	return out
}

// FuncDirectives returns the directives attached to a function declaration's
// doc comment.
func FuncDirectives(fn *ast.FuncDecl) []Directive {
	return ParseDirectives(fn.Doc)
}

// PackageMarked reports whether any file in the package carries the given
// standalone marker directive (e.g. "deterministic-package").
func PackageMarked(files []*ast.File, verb string) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, d := range ParseDirectives(cg) {
				if d.Verb == verb {
					return true
				}
			}
		}
	}
	return false
}

// InterfaceMethodDirectives walks every interface type declared in the
// files and calls fn for each method that carries at least one directive on
// its doc or trailing line comment — so behavioral contracts (fence
// classes, charge classes) can live on the interface the callers actually
// dispatch through.
func InterfaceMethodDirectives(info *types.Info, files []*ast.File, fn func(m *types.Func, dirs []Directive)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, fld := range it.Methods.List {
				dirs := append(ParseDirectives(fld.Doc), ParseDirectives(fld.Comment)...)
				if len(dirs) == 0 {
					continue
				}
				for _, name := range fld.Names {
					if obj, ok := info.Defs[name].(*types.Func); ok {
						fn(obj, dirs)
					}
				}
			}
			return true
		})
	}
}

// FieldDirectives walks every struct type declared in the files and calls fn
// for each field that carries at least one directive (on the field's doc or
// trailing line comment). The named type may be generic; directives attach
// to the field object of the generic declaration.
func FieldDirectives(info *types.Info, files []*ast.File, fn func(field *types.Var, dirs []Directive)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				dirs := append(ParseDirectives(fld.Doc), ParseDirectives(fld.Comment)...)
				if len(dirs) == 0 {
					continue
				}
				for _, name := range fld.Names {
					if obj, ok := info.Defs[name].(*types.Var); ok {
						fn(obj, dirs)
					}
				}
			}
			return true
		})
	}
}
