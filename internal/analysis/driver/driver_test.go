package driver

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openembedding/internal/analysis/oeanalysis"
)

// ---------------------------------------------------------------------------
// apply: ignore precedence over raw diagnostics
// ---------------------------------------------------------------------------

func diag(analyzer, file string, line int, msg string) oeanalysis.Diagnostic {
	return oeanalysis.Diagnostic{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Message:  msg,
	}
}

func ig(file string, line int, reason string) *ignoreDirective {
	d := &ignoreDirective{reason: reason}
	d.pos.Filename = file
	d.pos.Line = line
	d.pos.Column = 1
	return d
}

// TestApplyIgnoreCoversSameLineAndLineBelow: one //oevet:ignore covers
// diagnostics on its own line and the line directly below — including
// diagnostics from two different analyzers landing on the same line — and
// counts once in the used-ignore census.
func TestApplyIgnoreCoversSameLineAndLineBelow(t *testing.T) {
	raw := []oeanalysis.Diagnostic{
		diag("lockorder", "x.go", 10, "acquires out of order"),
		diag("epochfence", "x.go", 10, "returns while unfenced"),
		diag("allocfree", "x.go", 11, "make allocates"),
	}
	res := apply(raw, []*ignoreDirective{ig("x.go", 10, "test justification")})
	if len(res.Diagnostics) != 0 {
		t.Fatalf("want all diagnostics suppressed, got %v", res.Diagnostics)
	}
	if res.IgnoresUsed != 1 {
		t.Fatalf("one directive covering three diagnostics must count once, got %d", res.IgnoresUsed)
	}
}

// TestApplyIgnoreDoesNotReachTwoLinesDown: coverage is same-line-or-above
// only; a diagnostic two lines below the directive survives, and the
// directive still counts as used via the diagnostic it does cover.
func TestApplyIgnoreDoesNotReachTwoLinesDown(t *testing.T) {
	raw := []oeanalysis.Diagnostic{
		diag("chargeflow", "y.go", 5, "charges twice"),
		diag("chargeflow", "y.go", 7, "charges twice"),
	}
	res := apply(raw, []*ignoreDirective{ig("y.go", 5, "only the first")})
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Pos.Line != 7 {
		t.Fatalf("want only the line-7 diagnostic to survive, got %v", res.Diagnostics)
	}
	if res.IgnoresUsed != 1 {
		t.Fatalf("IgnoresUsed = %d, want 1", res.IgnoresUsed)
	}
}

// TestApplyMetaDiagnostics: reason-less and unused ignores are themselves
// diagnostics and never count toward the baseline census.
func TestApplyMetaDiagnostics(t *testing.T) {
	res := apply(nil, []*ignoreDirective{
		ig("z.go", 3, ""),               // malformed: no reason
		ig("z.go", 9, "covers nothing"), // unused
	})
	if len(res.Diagnostics) != 2 {
		t.Fatalf("want 2 meta-diagnostics, got %v", res.Diagnostics)
	}
	for _, d := range res.Diagnostics {
		if d.Analyzer != "oevet" {
			t.Errorf("meta-diagnostic attributed to %q, want oevet", d.Analyzer)
		}
	}
	if !strings.Contains(res.Diagnostics[0].Message, "requires a justification") {
		t.Errorf("malformed-ignore message: %q", res.Diagnostics[0].Message)
	}
	if !strings.Contains(res.Diagnostics[1].Message, "unused") {
		t.Errorf("unused-ignore message: %q", res.Diagnostics[1].Message)
	}
	if res.IgnoresUsed != 0 {
		t.Fatalf("meta-flagged ignores must not count, got %d", res.IgnoresUsed)
	}
}

// ---------------------------------------------------------------------------
// Baseline ratchet
// ---------------------------------------------------------------------------

func TestBaselineRoundTripAndRatchet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline")
	if err := WriteBaseline(path, 3); err != nil {
		t.Fatal(err)
	}
	n, err := ReadBaseline(path)
	if err != nil || n != 3 {
		t.Fatalf("ReadBaseline = %d, %v; want 3, nil", n, err)
	}
	if err := CheckBaseline(path, 3); err != nil {
		t.Errorf("exact census must pass: %v", err)
	}
	if err := CheckBaseline(path, 4); err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Errorf("growth must fail the ratchet, got %v", err)
	}
	if err := CheckBaseline(path, 2); err == nil || !strings.Contains(err.Error(), "below") {
		t.Errorf("shrink without regenerating must fail, got %v", err)
	}
}

// TestBaselineTolerantOfJustificationComments: a baseline change may say
// why in a `#` comment line of the file it changes; ReadBaseline must skip
// such lines.
func TestBaselineTolerantOfJustificationComments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline")
	content := "# oevet ignore baseline\n" +
		"# oevet-baseline-grow: PR 7 adds a justified ignore for the X invariant\n" +
		"ignores 4\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := ReadBaseline(path)
	if err != nil || n != 4 {
		t.Fatalf("ReadBaseline with grow-justification comment = %d, %v; want 4, nil", n, err)
	}
}

func TestBaselineRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline")
	if err := os.WriteFile(path, []byte("ignored 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaseline(path); err == nil {
		t.Fatal("unrecognized baseline line accepted")
	}
}

// ---------------------------------------------------------------------------
// A vet run: RunStandalone over a throwaway module
// ---------------------------------------------------------------------------

// twoAnalyzerSrc makes allocfree and epochfence both report on the same
// line: the one-line body puts the make expression and the closing brace
// (where the undischarged entry obligation is reported) on one line.
const twoAnalyzerSrc = `package a

// oevet:hotpath
//
// oevet:fence-obligated
func doubled() { _ = make([]int, 4) }
`

// vetModule writes files (slash-separated name → source) into a fresh
// module tvet and returns its directory.
func vetModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tvet\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runVet writes files into a fresh module and runs the whole suite over it
// the one way oevet runs.
func runVet(t *testing.T, files map[string]string) *Result {
	t.Helper()
	res, err := RunStandalone(vetModule(t, files), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunVetTwoAnalyzersSameLine: one run executes the whole suite, so two
// analyzers reporting on the same line both surface.
func TestRunVetTwoAnalyzersSameLine(t *testing.T) {
	res := runVet(t, map[string]string{"a.go": twoAnalyzerSrc})
	got := map[string]bool{}
	for _, d := range res.Diagnostics {
		if filepath.Base(d.Pos.Filename) != "a.go" || d.Pos.Line != 6 {
			t.Errorf("diagnostic outside a.go:6: %v", d)
		}
		got[d.Analyzer] = true
	}
	if len(res.Diagnostics) != 2 || !got["allocfree"] || !got["epochfence"] {
		t.Fatalf("want one allocfree and one epochfence diagnostic on a.go:6, got %v", res.Diagnostics)
	}
}

// TestRunVetIgnoreSuppresses: one //oevet:ignore on the shared line clears
// both diagnostics and counts once in the baseline census.
func TestRunVetIgnoreSuppresses(t *testing.T) {
	res := runVet(t, map[string]string{"a.go": strings.Replace(twoAnalyzerSrc,
		"func doubled() { _ = make([]int, 4) }",
		"func doubled() { _ = make([]int, 4) } //oevet:ignore driver-test: both diagnostics share this line",
		1)})
	if len(res.Diagnostics) != 0 || res.IgnoresUsed != 1 {
		t.Fatalf("want 0 diagnostics and 1 used ignore, got %v and %d", res.Diagnostics, res.IgnoresUsed)
	}
}

// TestRunVetCleanPackage: a package with no violations yields no
// diagnostics and no used ignores.
func TestRunVetCleanPackage(t *testing.T) {
	res := runVet(t, map[string]string{"a.go": "package a\n\nfunc ok() int { return 1 }\n"})
	if len(res.Diagnostics) != 0 || res.IgnoresUsed != 0 {
		t.Fatalf("want a clean run, got %v and %d used ignores", res.Diagnostics, res.IgnoresUsed)
	}
}

// TestRunVetSkipsTestFiles: in-package _test.go files are not analyzed
// (tests deliberately break the invariants), so a violation that lives only
// in a test file is not reported.
func TestRunVetSkipsTestFiles(t *testing.T) {
	res := runVet(t, map[string]string{
		"a.go":      "package a\n\nfunc ok() int { return 1 }\n",
		"a_test.go": twoAnalyzerSrc,
	})
	if len(res.Diagnostics) != 0 {
		t.Fatalf("test-file-only violation reported: %v", res.Diagnostics)
	}
}

// TestRunVetOnePackageSeesDependencyFacts: a package run alone checks as it
// does inside ./...: each of these carries a fence-ok or alloc-ok directive
// that only a fact exported by one of its dependencies discharges (the
// tree holds no ignore; TestRunVetDependencyIgnoresAreNotTheRuns covers a
// dependency's).
func TestRunVetOnePackageSeesDependencyFacts(t *testing.T) {
	for _, pkg := range []string{"core", "ps", "serve", "train"} {
		res, err := RunStandalone(".", []string{"openembedding/internal/" + pkg})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Diagnostics {
			t.Errorf("%s alone: %s: %s (%s)", pkg, d.Pos, d.Message, d.Analyzer)
		}
		if res.IgnoresUsed != 0 {
			t.Errorf("%s alone: %d ignores used, want 0", pkg, res.IgnoresUsed)
		}
	}
}

// TestRunVetDependencyIgnoresAreNotTheRuns: a package run alone analyzes
// its dependencies for facts only, so a dependency's used //oevet:ignore
// neither counts toward the run's census nor reports as unused; the whole
// module's run counts it once.
func TestRunVetDependencyIgnoresAreNotTheRuns(t *testing.T) {
	dir := vetModule(t, map[string]string{
		"dep/dep.go": strings.NewReplacer(
			"package a", "package dep",
			"func doubled() { _ = make([]int, 4) }",
			"func Doubled() { _ = make([]int, 4) } //oevet:ignore driver-test: the dependency's own suppression",
		).Replace(twoAnalyzerSrc),
		"top/top.go": "package top\n\nimport \"tvet/dep\"\n\nfunc Run() { dep.Doubled() }\n",
	})
	for pattern, ignores := range map[string]int{"./top": 0, "./...": 1} {
		res, err := RunStandalone(dir, []string{pattern})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Diagnostics) != 0 || res.IgnoresUsed != ignores {
			t.Errorf("%s: got %v and %d used ignores, want no diagnostics and %d",
				pattern, res.Diagnostics, res.IgnoresUsed, ignores)
		}
	}
}

// ---------------------------------------------------------------------------
// Main: flag errors
// ---------------------------------------------------------------------------

func TestMainFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-no-such-flag"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown flag exit = %d, want 1", code)
	}
	if code := Main([]string{"-baseline"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-baseline without argument exit = %d, want 1", code)
	}
}
