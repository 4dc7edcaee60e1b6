package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view the cross-package analyzers run over:
// every loaded package plus the lazily-built call-graph facts layer.
type Program struct {
	Pkgs []*Package
	// Dir is the module root, used by analyzers that shell out to the go
	// toolchain (hotalloc).
	Dir string
	// Roots are the entry points reachability is computed from, as node
	// names ("pkg/path.(*Type).Method"). Empty selects DefaultRoots.
	Roots []string

	graph *CallGraph
}

// DefaultRoots are the simulation entry points the determinism contract
// binds: everything transitively callable from a simulation run or from
// the experiment harness's job executor must stay wall-clock- and
// global-RNG-free.
var DefaultRoots = []string{
	"antidope/internal/core.(*Simulation).Run",
	"antidope/internal/harness.(*Pool).Run",
}

// Graph returns the call-graph facts, building them on first use.
func (p *Program) Graph() *CallGraph {
	if p.graph == nil {
		p.graph = BuildCallGraph(p.Pkgs)
	}
	return p.graph
}

// roots resolves the configured (or default) root specs to live nodes.
// Missing roots are skipped: a partial load simply has no chains from
// entry points it does not contain.
func (p *Program) roots() []*FuncNode {
	specs := p.Roots
	if len(specs) == 0 {
		specs = DefaultRoots
	}
	g := p.Graph()
	var out []*FuncNode
	for _, s := range specs {
		if n := g.FindRoot(s); n != nil {
			out = append(out, n)
		}
	}
	return out
}

// RootsFromComments returns the node names of functions whose doc comment
// carries a //lint:root marker. Production runs use DefaultRoots; fixture
// programs declare their entry points inline with this marker instead, so
// a test program is self-describing.
//
//lint:allow deadcode -- called by linttest, the harness of internal/lint/lint_test.go
func RootsFromComments(pkgs []*Package) []string {
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if strings.HasPrefix(strings.TrimSpace(c.Text), "//lint:root") {
						if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && obj != nil {
							out = append(out, funcDisplayName(obj))
						}
						break
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// ProgramAnalyzer is one whole-program check. Unlike the per-package
// Analyzer it returns its diagnostics directly; RunProgram applies the
// //lint:allow suppressions afterwards (honoring SuppressPos).
type ProgramAnalyzer struct {
	Name string
	Doc  string
	Run  func(p *Program) ([]Diagnostic, error)
}

// AllProgram returns the whole-program suite in a stable order. HotAlloc
// is included: callers that cannot afford the compiler pass (or are
// analyzing packages with no annotations) pay nothing, because it exits
// early when no //hot:allocfree annotation is in scope.
func AllProgram() []*ProgramAnalyzer {
	return []*ProgramAnalyzer{
		WallTimeReach,
		GlobalRandReach,
		DeadCode,
		HotAlloc,
	}
}

// RunProgram executes the given whole-program analyzers and returns the
// surviving diagnostics in (file, line, analyzer) order. Suppression uses
// the same //lint:allow comments as the per-package pass, but honors each
// diagnostic's SuppressPos — the program analyzers point it at the chain
// head (the declaration of the function containing the offending call),
// so a sink-level allow that satisfies the per-package analyzer does not
// silently waive the reachability contract too.
func RunProgram(prog *Program, analyzers []*ProgramAnalyzer) ([]Diagnostic, error) {
	sup := suppressions{}
	for _, pkg := range prog.Pkgs {
		for file, lines := range buildSuppressions(pkg.Fset, pkg.Files) {
			sup[file] = lines
		}
	}
	fset := prog.Fset()
	// Findings land only in matched packages; a dependency is loaded for
	// its call edges alone.
	matched := map[string]bool{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			matched[fset.File(f.Pos()).Name()] = !pkg.Dep
		}
	}
	var kept []Diagnostic
	for _, a := range analyzers {
		diags, err := a.Run(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range diags {
			d.Analyzer = a.Name
			if matched[fset.Position(d.Pos).Filename] && !sup.suppressed(fset, d) {
				kept = append(kept, d)
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := fset.Position(kept[i].Pos), fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

// Fset returns the shared FileSet of the loaded packages (the loader uses
// one FileSet for every package in a run).
func (p *Program) Fset() *token.FileSet {
	if len(p.Pkgs) == 0 {
		return token.NewFileSet()
	}
	return p.Pkgs[0].Fset
}
