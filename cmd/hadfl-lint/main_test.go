package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errOut.String())
	}
	for _, name := range []string{"detmap", "walltime", "metriccatalog", "ctxbg"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestRepoIsClean drives the real module through the driver — the
// same gate as `make lint`.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("hadfl-lint over the repo = exit %d:\n%s%s", code, out.String(), errOut.String())
	}
}

// TestFindingsExitNonZero seeds a violation in a scratch module and
// checks the driver reports it at file:line with the analyzer tag and
// exits 1.
func TestFindingsExitNonZero(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "core")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package core

func visit(m map[int]int) {
	for k := range m {
		_ = k
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1; stdout %q stderr %q", code, out.String(), errOut.String())
	}
	got := out.String()
	wantLoc := filepath.Join("internal", "core", "bad.go") + ":4:"
	if !strings.Contains(got, wantLoc) || !strings.Contains(got, "[detmap]") {
		t.Errorf("output missing %q with [detmap] tag:\n%s", wantLoc, got)
	}
}

// TestPatternFilter: a pattern that matches no packages is a usage
// error; a pattern selecting a clean subtree passes even when another
// subtree has findings.
func TestPatternFilter(t *testing.T) {
	root := t.TempDir()
	for _, d := range []string{filepath.Join("internal", "core"), filepath.Join("internal", "trace")} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	bad := "package core\n\nfunc visit(m map[int]int) {\n\tfor k := range m {\n\t\t_ = k\n\t}\n}\n"
	if err := os.WriteFile(filepath.Join(root, "internal", "core", "bad.go"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "internal", "trace", "ok.go"), []byte("package trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "internal/trace"}, &out, &errOut); code != 0 {
		t.Errorf("clean subtree = exit %d:\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-root", root, "internal/nothere"}, &out, &errOut); code != 2 {
		t.Errorf("no-match pattern = exit %d, want 2", code)
	}
}
