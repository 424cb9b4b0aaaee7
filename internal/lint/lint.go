// Package lint implements hadfl-lint: a stdlib-only static-analysis
// suite (go/parser + go/ast + go/token, nothing else) that mechanically
// enforces the project invariants the HADFL reproduction rests on —
// byte-determinism of run paths, the canonical metric-name catalog,
// and context threading.
//
// The analyzers are deliberately syntactic: without go/types they
// resolve declarations per package (see scope.go), which makes them
// heuristic — they can miss a violation smuggled through an interface,
// but they never need the package to compile and they run in
// milliseconds over the whole module. Every diagnostic is suppressible
// at the site with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory; an unknown analyzer name in a directive is itself a
// diagnostic (analyzer "ignore"), so suppressions cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the driver's output format: file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A File is one parsed source file of a package.
type File struct {
	Name string // path as parsed (also in token positions)
	AST  *ast.File
}

// A Package is the unit analyzers run on: the non-test files of one
// directory, plus the module-relative directory path analyzers use to
// decide applicability.
type Package struct {
	Dir   string // module-relative, slash-separated ("internal/core"); "" for the root
	Name  string
	Fset  *token.FileSet
	Files []*File
}

// An Analyzer checks one project invariant.
type Analyzer struct {
	Name string
	Doc  string // one-line: the invariant it enforces
	// Applies reports whether the analyzer runs on the package at the
	// given module-relative dir; nil means every package.
	Applies func(dir string) bool
	Run     func(pkg *Package) []Diagnostic
}

// analyzers is the registered suite, in report order.
var analyzers = []*Analyzer{
	detmapAnalyzer,
	walltimeAnalyzer,
	metriccatalogAnalyzer,
	ctxbgAnalyzer,
}

// Analyzers returns the registered suite (shared backing array; treat
// as read-only).
func Analyzers() []*Analyzer { return analyzers }

// deterministicDirs are the packages whose run paths must be
// byte-deterministic: the serve cache keys on hadfl.Fingerprint,
// dispatch retries and hedging assume reruns are bit-identical, and
// the delta/topk wire codecs derive reference vectors independently on
// both ends. detmap and walltime police exactly this set.
var deterministicDirs = map[string]bool{
	"internal/core":      true,
	"internal/nn":        true,
	"internal/tensor":    true,
	"internal/eval":      true,
	"internal/aggregate": true,
	"internal/baselines": true,
}

func isDeterministicDir(dir string) bool { return deterministicDirs[dir] }

// Run applies the full registered suite to pkgs: analyzers, directive
// validation, and suppression filtering. Diagnostics come back sorted
// by file, line, column, analyzer.
func Run(pkgs []*Package) []Diagnostic { return RunAnalyzers(pkgs, analyzers) }

// RunAnalyzers is Run restricted to a chosen analyzer set (the fixture
// tests use it to aim one analyzer at one fixture package). Directive
// validation knows only the chosen set, so an ignore naming an
// unlisted analyzer is reported as unknown.
func RunAnalyzers(pkgs []*Package, as []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range as {
		for _, pkg := range pkgs {
			if a.Applies != nil && !a.Applies(pkg.Dir) {
				continue
			}
			diags = append(diags, a.Run(pkg)...)
		}
	}

	known := make(map[string]bool, len(as))
	for _, a := range as {
		known[a.Name] = true
	}
	var directives []directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, dir := range scanDirectives(pkg.Fset, f.AST) {
				if !known[dir.analyzer] {
					names := make([]string, 0, len(as))
					for _, a := range as {
						names = append(names, a.Name)
					}
					diags = append(diags, Diagnostic{
						Pos:      dir.pos,
						Analyzer: "ignore",
						Message: fmt.Sprintf("lint:ignore names unknown analyzer %q (known: %s)",
							dir.analyzer, strings.Join(names, ", ")),
					})
					continue
				}
				if dir.reason == "" {
					diags = append(diags, Diagnostic{
						Pos:      dir.pos,
						Analyzer: "ignore",
						Message:  fmt.Sprintf("lint:ignore %s needs a reason: //lint:ignore <analyzer> <reason>", dir.analyzer),
					})
					continue
				}
				directives = append(directives, dir)
			}
		}
	}

	diags = suppress(diags, directives)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// A directive is one well-formed //lint:ignore comment.
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
}

// scanDirectives extracts every lint:ignore directive in a file,
// well-formed or not (validation happens in RunAnalyzers).
func scanDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // /* */ comments are not directives
			}
			text, ok = strings.CutPrefix(strings.TrimLeft(text, " \t"), "lint:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			d := directive{pos: fset.Position(c.Pos())}
			if len(fields) > 0 {
				d.analyzer = fields[0]
			}
			if len(fields) > 1 {
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// suppress drops diagnostics covered by a directive for the same
// analyzer in the same file on the same line or the line directly
// above. Directive-validation diagnostics (analyzer "ignore") are
// never suppressible.
func suppress(diags []Diagnostic, directives []directive) []Diagnostic {
	if len(directives) == 0 {
		return diags
	}
	covered := make(map[string]bool, 2*len(directives))
	for _, d := range directives {
		covered[fmt.Sprintf("%s\x00%s\x00%d", d.pos.Filename, d.analyzer, d.pos.Line)] = true
		covered[fmt.Sprintf("%s\x00%s\x00%d", d.pos.Filename, d.analyzer, d.pos.Line+1)] = true
	}
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "ignore" &&
			covered[fmt.Sprintf("%s\x00%s\x00%d", d.Pos.Filename, d.Analyzer, d.Pos.Line)] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}
