package lint

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness: each analyzer runs against
// testdata/src/<name>/, whose files annotate every expected finding
// with `// want[<±offset>] <analyzer> <message substring>` on (or
// offset from) the offending line. The harness fails on any
// unexpected diagnostic and any unmatched expectation, so fixtures
// pin both hits and non-hits.

type expectation struct {
	file     string
	line     int
	analyzer string
	substr   string
	matched  bool
}

func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text, ok = strings.CutPrefix(strings.TrimSpace(text), "want")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				offset := 0
				if len(text) > 0 && (text[0] == '+' || text[0] == '-') {
					i := strings.IndexAny(text, " \t")
					if i < 0 {
						t.Fatalf("%s:%d: malformed want offset %q", pos.Filename, pos.Line, text)
					}
					n, err := strconv.Atoi(text[:i])
					if err != nil {
						t.Fatalf("%s:%d: malformed want offset %q: %v", pos.Filename, pos.Line, text[:i], err)
					}
					offset, text = n, text[i:]
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					t.Fatalf("%s:%d: want needs `<analyzer> <substring>`, got %q", pos.Filename, pos.Line, text)
				}
				wants = append(wants, &expectation{
					file:     pos.Filename,
					line:     pos.Line + offset,
					analyzer: fields[0],
					substr:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<name> as a package labeled asDir and
// checks the chosen analyzers' diagnostics against the fixture's want
// annotations.
func runFixture(t *testing.T, name, asDir string, as ...*Analyzer) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name), asDir)
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers([]*Package{pkg}, as)
	wants := collectWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
				w.analyzer == d.Analyzer && strings.Contains(d.Message, w.substr) {
				w.matched, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected [%s] diagnostic containing %q, got none", w.file, w.line, w.analyzer, w.substr)
		}
	}
}

func TestDetmapFixture(t *testing.T) {
	runFixture(t, "detmap", "internal/core", detmapAnalyzer)
}

func TestWalltimeFixture(t *testing.T) {
	runFixture(t, "walltime", "internal/nn", walltimeAnalyzer)
}

func TestWalltimeDispatchFixture(t *testing.T) {
	runFixture(t, "walltimedispatch", "internal/serve/dispatch", walltimeAnalyzer)
}

func TestMetricCatalogFixture(t *testing.T) {
	runFixture(t, "metriccatalog", "internal/serve", metriccatalogAnalyzer)
}

func TestCtxbgFixture(t *testing.T) {
	runFixture(t, "ctxbg", "internal/serve", ctxbgAnalyzer)
}

// TestIgnoreFixture proves //lint:ignore silences exactly the named
// analyzer on exactly its line (or the next), and that malformed
// directives are diagnostics themselves. detmap rides along so the
// "valid directive, different analyzer" case uses a known name.
func TestIgnoreFixture(t *testing.T) {
	runFixture(t, "ignore", "internal/serve", ctxbgAnalyzer, detmapAnalyzer)
}

// TestAnalyzerScoping: deterministic-package analyzers must not fire
// outside their package set, and ctxbg must not fire outside
// internal/.
func TestAnalyzerScoping(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		asDir   string
		an      *Analyzer
	}{
		{"detmap", "internal/serve", detmapAnalyzer},
		{"walltime", "cmd/hadfl-sim", walltimeAnalyzer},
		{"walltimedispatch", "internal/serve", walltimeAnalyzer},
		{"ctxbg", "cmd/hadfl-serve", ctxbgAnalyzer},
		{"metriccatalog", "internal/metrics", metriccatalogAnalyzer},
	} {
		pkg, err := LoadDir(filepath.Join("testdata", "src", tc.fixture), tc.asDir)
		if err != nil {
			t.Fatal(err)
		}
		if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{tc.an}); len(diags) > 0 {
			t.Errorf("%s labeled %s: analyzer should not apply, got %v", tc.fixture, tc.asDir, diags)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "ctxbg"), "internal/serve")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{ctxbgAnalyzer})
	if len(diags) == 0 {
		t.Fatal("expected diagnostics")
	}
	s := diags[0].String()
	want := fmt.Sprintf("%s:", filepath.Join("testdata", "src", "ctxbg", "ctxbg.go"))
	if !strings.HasPrefix(s, want) || !strings.Contains(s, "[ctxbg]") {
		t.Errorf("String() = %q, want %q prefix and [ctxbg] tag", s, want)
	}
}

// TestAnalyzersRegistered pins the suite: the four repo invariants
// stay enforced and names stay stable for lint:ignore directives.
func TestAnalyzersRegistered(t *testing.T) {
	want := []string{"detmap", "walltime", "metriccatalog", "ctxbg"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("registered %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc line", a.Name)
		}
	}
}
