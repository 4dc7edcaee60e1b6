// Package linttest is a miniature analysistest: it type-checks a fixture
// package under internal/lint/testdata/src/<name>, runs one analyzer, and
// matches the surviving diagnostics against `// want "regexp"` comments.
// Lines carrying a //lint:allow comment must produce no diagnostic at
// all, which is how the escape hatch itself is tested.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"antidope/internal/lint"
)

var wantRe = regexp.MustCompile(`//\s*want\s+"(.*)"\s*$`)

type want struct {
	rx      *regexp.Regexp
	matched bool
}

// Run executes analyzer a over the fixture package testdata/src/<fixture>
// and fails t on any mismatch between diagnostics and want comments.
//
//lint:allow deadcode -- harness of internal/lint/lint_test.go, linttest's only importer
func Run(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				importSet[path] = true
			}
		}
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no Go files", fixture)
	}

	var imp types.Importer
	if len(importSet) > 0 {
		paths := make([]string, 0, len(importSet))
		for p := range importSet {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		imp, err = lint.ExportImporter(fset, paths...)
		if err != nil {
			t.Fatalf("export importer: %v", err)
		}
	}
	tpkg, info, err := lint.Check(fset, fixture, files, imp)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}

	pkg := &lint.Package{Path: fixture, Fset: fset, Files: files, Types: tpkg, Info: info}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		w, ok := wants[key]
		if !ok || !w.rx.MatchString(d.Message) {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
			continue
		}
		w.matched = true
	}
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !wants[k].matched {
			t.Errorf("expected diagnostic at %s matching %q, got none", k, wants[k].rx)
		}
	}
}

// RunProgram executes one whole-program analyzer over the fixture
// packages matched by patterns (go-list syntax, e.g.
// "./testdata/src/progwalltime/..."). Unlike Run, fixtures here are real
// module packages loaded through the production go-list loader, because
// the program analyzers need export data, import graphs, and (for
// hotalloc) a compilable package for the toolchain to chew on.
//
// Roots come from //lint:root markers on fixture function docs, so each
// fixture program declares its own entry points. Diagnostics are matched
// against the same `// want "regexp"` comments as Run.
//
//lint:allow deadcode -- harness of internal/lint/lint_test.go, linttest's only importer
func RunProgram(t *testing.T, a *lint.ProgramAnalyzer, patterns ...string) {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(dir, patterns)
	if err != nil {
		t.Fatalf("load fixture program: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("patterns %v matched no packages", patterns)
	}
	prog := &lint.Program{
		Pkgs:  pkgs,
		Dir:   dir,
		Roots: lint.RootsFromComments(pkgs),
	}
	diags, err := lint.RunProgram(prog, []*lint.ProgramAnalyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	fset := prog.Fset()
	var files []*ast.File
	for _, pkg := range pkgs {
		if !pkg.Dep {
			files = append(files, pkg.Files...)
		}
	}
	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		w, ok := wants[key]
		if !ok || !w.rx.MatchString(d.Message) {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
			continue
		}
		w.matched = true
	}
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !wants[k].matched {
			t.Errorf("expected diagnostic at %s matching %q, got none", k, wants[k].rx)
		}
	}
}

//lint:allow deadcode -- harness of internal/lint/lint_test.go, linttest's only importer
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string]*want {
	t.Helper()
	wants := map[string]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				rx, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)] = &want{rx: rx}
			}
		}
	}
	return wants
}
