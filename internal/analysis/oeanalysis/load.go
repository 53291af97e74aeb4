package oeanalysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// LoadedPackage is one type-checked package ready for analysis.
type LoadedPackage struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	FileNames  []string
	Pkg        *types.Package
	Info       *types.Info
	// DepOnly marks a dependency of the requested packages, loaded so the
	// facts it exports reach them: its diagnostics and ignores are not the
	// run's.
	DepOnly bool
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// GoList runs `go list -export -json -deps` for the given patterns in dir
// and returns the decoded package stream. The -export flag makes the go
// tool produce (or surface from the build cache) export data for every
// package, which is what lets the loader type-check targets against their
// dependencies without compiling anything itself.
func GoList(dir string, patterns []string) ([]listPackage, error) {
	args := append([]string{"list", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportImporter returns a types.Importer that resolves import paths from
// compiler export-data files (the Export field of `go list -export`).
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("oevet: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// Load type-checks every package matched by patterns (relative to dir, a
// directory inside the module), preceded by every non-standard package they
// import, marked DepOnly. Test files are not analyzed: the invariants the
// suite enforces are production-code invariants, and excluding tests keeps
// the ignore baseline stable under test churn.
func Load(dir string, patterns []string) ([]*LoadedPackage, *token.FileSet, error) {
	pkgs, err := GoList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string, len(pkgs))
	var targets []listPackage
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Name != "" {
			targets = append(targets, p)
		}
	}
	// go list -deps emits packages in dependency order (dependencies before
	// dependents). Preserve it: facts exported by internal/pmem must already
	// exist when internal/core (which imports it) is analyzed.

	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var out []*LoadedPackage
	for _, t := range targets {
		lp, err := checkPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		lp.DepOnly = t.DepOnly
		out = append(out, lp)
	}
	return out, fset, nil
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*LoadedPackage, error) {
	var (
		files []*ast.File
		names []string
	)
	for _, f := range goFiles {
		path := f
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, f)
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("oevet: parse %s: %w", path, err)
		}
		files = append(files, file)
		names = append(names, path)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("oevet: typecheck %s: %w", importPath, err)
	}
	return &LoadedPackage{
		ImportPath: importPath,
		Dir:        dir,
		Files:      files,
		FileNames:  names,
		Pkg:        pkg,
		Info:       info,
	}, nil
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
