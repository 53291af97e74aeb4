// Package driver assembles the oevet analyzer suite and runs it: `oevet
// ./...` loads the packages via `go list -export`, analyzes their
// production files in dependency order (so cross-package facts flow), and
// enforces the //oevet:ignore baseline.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"strconv"
	"strings"

	"openembedding/internal/analysis/allocfree"
	"openembedding/internal/analysis/chargeflow"
	"openembedding/internal/analysis/determinism"
	"openembedding/internal/analysis/epochfence"
	"openembedding/internal/analysis/errwrap"
	"openembedding/internal/analysis/lockorder"
	"openembedding/internal/analysis/oeanalysis"
	"openembedding/internal/analysis/pmemdurability"
)

// Suite is every analyzer cmd/oevet runs, in execution order.
var Suite = []*oeanalysis.Analyzer{
	lockorder.Analyzer,
	pmemdurability.Analyzer,
	determinism.Analyzer,
	chargeflow.Analyzer,
	allocfree.Analyzer,
	epochfence.Analyzer,
	errwrap.Analyzer,
}

// Result is the outcome of a standalone run.
type Result struct {
	// Diagnostics are the surviving problems: analyzer reports that no
	// //oevet:ignore covers, plus meta-problems (ignore without a reason,
	// ignore that suppresses nothing).
	Diagnostics []oeanalysis.Diagnostic
	// IgnoresUsed counts //oevet:ignore directives that suppressed at
	// least one diagnostic; the baseline pins this number.
	IgnoresUsed int
}

// ignoreDirective is one //oevet:ignore occurrence in analyzed source.
type ignoreDirective struct {
	pos    token.Position
	reason string
	used   bool
}

// RunStandalone analyzes the packages matched by patterns (resolved by the
// go tool relative to dir) with the full suite. Their in-module
// dependencies are analyzed first for their facts alone, so one package
// checks the same as it does inside ./...
func RunStandalone(dir string, patterns []string) (*Result, error) {
	pkgs, fset, err := oeanalysis.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	facts := oeanalysis.NewFacts()
	var (
		raw     []oeanalysis.Diagnostic
		ignores []*ignoreDirective
	)
	for _, p := range pkgs {
		if !p.DepOnly {
			ignores = append(ignores, collectIgnores(fset, p.Files)...)
		}
		for _, a := range Suite {
			diags, err := oeanalysis.Run(a, fset, p.Files, p.Pkg, p.Info, facts)
			if err != nil {
				return nil, err
			}
			if !p.DepOnly {
				raw = append(raw, diags...)
			}
		}
	}
	return apply(raw, ignores), nil
}

// collectIgnores scans a package's files for //oevet:ignore directives.
func collectIgnores(fset *token.FileSet, files []*ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, d := range oeanalysis.ParseDirectives(cg) {
				if d.Verb != "ignore" {
					continue
				}
				out = append(out, &ignoreDirective{
					pos:    fset.Position(d.Pos),
					reason: strings.Join(d.Args, " "),
				})
			}
		}
	}
	return out
}

// apply suppresses diagnostics covered by an ignore on the same line or the
// line directly above, and appends meta-diagnostics for malformed or unused
// ignores.
func apply(raw []oeanalysis.Diagnostic, ignores []*ignoreDirective) *Result {
	type key struct {
		file string
		line int
	}
	byLine := map[key][]*ignoreDirective{}
	for _, ig := range ignores {
		k := key{ig.pos.Filename, ig.pos.Line}
		byLine[k] = append(byLine[k], ig)
	}
	res := &Result{}
	for _, d := range raw {
		var covering *ignoreDirective
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, ig := range byLine[key{d.Pos.Filename, line}] {
				covering = ig
				break
			}
			if covering != nil {
				break
			}
		}
		if covering == nil {
			res.Diagnostics = append(res.Diagnostics, d)
			continue
		}
		covering.used = true
	}
	for _, ig := range ignores {
		switch {
		case ig.reason == "":
			res.Diagnostics = append(res.Diagnostics, oeanalysis.Diagnostic{
				Analyzer: "oevet",
				Pos:      ig.pos,
				Message:  "//oevet:ignore requires a justification: //oevet:ignore <reason>",
			})
		case !ig.used:
			res.Diagnostics = append(res.Diagnostics, oeanalysis.Diagnostic{
				Analyzer: "oevet",
				Pos:      ig.pos,
				Message:  "unused //oevet:ignore directive (suppresses nothing); delete it and update the baseline",
			})
		default:
			res.IgnoresUsed++
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Ignore baseline
// ---------------------------------------------------------------------------

// ReadBaseline parses a baseline file: comment lines (#) plus one
// `ignores N` line.
func ReadBaseline(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(line, "ignores %d", &n); err == nil {
			return n, nil
		}
		return 0, fmt.Errorf("oevet: baseline %s: unrecognized line %q", path, line)
	}
	return 0, fmt.Errorf("oevet: baseline %s: no `ignores N` line", path)
}

// WriteBaseline records the current used-ignore count.
func WriteBaseline(path string, n int) error {
	content := "# oevet ignore baseline: the number of //oevet:ignore suppressions in the\n" +
		"# tree. New ignores fail CI until this file is regenerated (and the new\n" +
		"# justification reviewed):  go run ./cmd/oevet -write-baseline ./...\n" +
		"ignores " + strconv.Itoa(n) + "\n"
	return os.WriteFile(path, []byte(content), 0o644)
}

// CheckBaseline compares a run's used-ignore count against the pinned
// baseline, in both directions (a ratchet: removing an ignore must also
// update the file, keeping it an exact census).
func CheckBaseline(path string, used int) error {
	want, err := ReadBaseline(path)
	if err != nil {
		return err
	}
	switch {
	case used > want:
		return fmt.Errorf("oevet: %d //oevet:ignore suppressions exceed the baseline of %d; remove the new ignore or justify it and regenerate %s", used, want, path)
	case used < want:
		return fmt.Errorf("oevet: %d //oevet:ignore suppressions are below the baseline of %d; ratchet down by regenerating %s", used, want, path)
	}
	return nil
}
