package lint

import (
	"bytes"
	"encoding/json"
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
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Dep marks a package the patterns did not match, loaded because a
	// matched package imports it. Its bodies join the call graph, so a
	// call that only a dependency makes (an interface call in core of a
	// method the matched package defines) still reaches its callee, but
	// no analyzer reports in it.
	Dep bool
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns with the go command,
// compiles export data for their dependency graph, and type-checks each
// matched package, and each dependency outside the standard library
// (marked Dep), from source. Test files are excluded by construction
// (GoFiles never contains *_test.go), which is also the analyzers'
// contract: the determinism rules bind non-test code.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("%s: %s", t.ImportPath, t.Error.Err)
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := Check(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path:  t.ImportPath,
			Dir:   t.Dir,
			Fset:  fset,
			Files: files,
			Types: pkg,
			Info:  info,
			Dep:   t.DepOnly,
		})
	}
	return pkgs, nil
}

// Check type-checks one package's files with the given importer and
// returns the package plus the filled-in type information the analyzers
// consume.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp, FakeImportC: true}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// ExportImporter builds an importer backed by compiled export data for
// the named packages and their transitive dependencies. The lint tests
// use it to type-check fixture files that import the standard library.
//
//lint:allow deadcode -- called by linttest, the harness of internal/lint/lint_test.go
func ExportImporter(fset *token.FileSet, pkgs ...string) (types.Importer, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, pkgs...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}), nil
}
