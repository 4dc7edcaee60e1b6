package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// HotAlloc machine-checks the zero-allocation contract of the simulator's
// hot path. A function annotated with a `//hot:allocfree` comment (in or
// directly above its doc comment) must not heap-allocate: the analyzer
// compiles the annotated packages with `go build -gcflags='-m -m'` and
// fails on any escape-analysis decision inside an annotated function's
// body — composite literals or make/new escaping to heap, variables moved
// to heap (closure captures), or escaping function literals.
//
// Two refinements keep the check equal in spirit to the runtime
// testing.AllocsPerRun assertions it backs up:
//
//   - Allocations on a panic path are exempt: a hot function may allocate
//     in order to die (panic(fmt.Sprintf(...)) is the house idiom for
//     contract violations), because a taken panic path ends the run.
//   - A `//lint:allow hotalloc -- reason` on the allocation line exempts
//     a deliberate cold-path allocation, e.g. the event pool refilling on
//     a miss: steady state never executes it, but the compiler cannot
//     know that.
//
// The check is per-function, not interprocedural: a call into a callee
// that allocates internally is not attributed to the annotated caller
// (the runtime alloc tests remain the backstop for whole-path budgets).
var HotAlloc = &ProgramAnalyzer{
	Name: "hotalloc",
	Doc: "forbid heap allocation inside //hot:allocfree functions, " +
		"verified against the compiler's escape analysis " +
		"(go build -gcflags='-m -m')",
	Run: runHotAlloc,
}

// hotMarker is the annotation that opts a function into the check.
const hotMarker = "//hot:allocfree"

// hotFunc is one annotated function's source span.
type hotFunc struct {
	name     string
	file     string // absolute path
	from, to int    // line span of the declaration
	// cold are lines whose allocations are exempt (panic call spans).
	cold map[int]bool
}

// escapeLine matches one escape-analysis diagnostic:
//
//	internal/simtime/engine.go:128:8: &event{...} escapes to heap:
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

func runHotAlloc(prog *Program) ([]Diagnostic, error) {
	fset := prog.Fset()
	var hot []hotFunc
	pkgSet := map[string]bool{}
	tokFiles := map[string]*token.File{}

	for _, pkg := range prog.Pkgs {
		if pkg.Dep {
			continue // its annotations are checked where it is matched
		}
		for _, f := range pkg.Files {
			tf := fset.File(f.Pos())
			if tf == nil {
				continue
			}
			tokFiles[tf.Name()] = tf
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasHotMarker(fd) {
					continue
				}
				hf := hotFunc{
					name: funcLabel(pkg, fd),
					file: tf.Name(),
					from: fset.Position(fd.Pos()).Line,
					to:   fset.Position(fd.End()).Line,
					cold: panicLines(fset, fd),
				}
				hot = append(hot, hf)
				pkgSet[pkg.Path] = true
			}
		}
	}
	if len(hot) == 0 {
		return nil, nil
	}

	pkgs := make([]string, 0, len(pkgSet))
	for p := range pkgSet {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)

	out, err := escapeAnalysis(prog.Dir, pkgs)
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		m := escapeLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		// The compiler prints a decision both with a trailing colon (opening
		// the -m -m explanation) and without; normalize so they dedupe.
		msg := strings.TrimSuffix(m[4], ":")
		if !isAllocDecision(msg) {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(prog.Dir, file)
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		for i := range hot {
			hf := &hot[i]
			if hf.file != file || line < hf.from || line > hf.to {
				continue
			}
			if hf.cold[line] {
				continue
			}
			key := fmt.Sprintf("%s:%d:%s", file, line, msg)
			if seen[key] {
				continue
			}
			seen[key] = true
			diags = append(diags, Diagnostic{
				Pos: linePos(tokFiles[hf.file], line, col),
				Message: fmt.Sprintf(
					"//hot:allocfree function %s heap-allocates: %s "+
						"(escape analysis; annotate a deliberate cold-path "+
						"allocation with //lint:allow hotalloc -- reason)",
					hf.name, msg),
			})
			break
		}
	}
	return diags, sc.Err()
}

// escapeAnalysis compiles the packages with escape-analysis diagnostics
// enabled and returns the combined compiler output. The build cache
// replays diagnostics, so repeated runs cost one cache probe per package.
func escapeAnalysis(dir string, pkgs []string) ([]byte, error) {
	args := append([]string{"build", "-gcflags=-m -m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m -m: %v\n%s", err, buf.String())
	}
	return buf.Bytes(), nil
}

// isAllocDecision reports whether one escape-analysis message describes a
// heap allocation (rather than an inlining note, a non-escape, or a flow
// explanation).
func isAllocDecision(msg string) bool {
	if strings.Contains(msg, "does not escape") {
		return false
	}
	if strings.Contains(msg, "flow:") || strings.Contains(msg, "from ") && strings.Contains(msg, " at ") {
		// -m -m explanation sublines; the decision line was already seen.
		return false
	}
	return strings.Contains(msg, "escapes to heap") ||
		strings.HasPrefix(msg, "moved to heap:")
}

// hasHotMarker reports whether the function's doc comment carries the
// //hot:allocfree annotation.
func hasHotMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotMarker) {
			return true
		}
	}
	return false
}

// panicLines returns the lines covered by panic(...) call expressions in
// the function body: allocating only to die is allowed.
func panicLines(fset *token.FileSet, fd *ast.FuncDecl) map[int]bool {
	cold := map[int]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ident, ok := call.Fun.(*ast.Ident); ok && ident.Name == "panic" {
			from := fset.Position(call.Pos()).Line
			to := fset.Position(call.End()).Line
			for l := from; l <= to; l++ {
				cold[l] = true
			}
		}
		return true
	})
	return cold
}

// funcLabel renders "pkg.Func" or "pkg.(*T).M" for diagnostics.
func funcLabel(pkg *Package, fd *ast.FuncDecl) string {
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && obj != nil {
		return funcDisplayName(obj)
	}
	return pkg.Path + "." + fd.Name.Name
}

// linePos converts (line, col) back to a token.Pos in tf, clamping
// defensively: a stale compiler line (should not happen — the loader and
// the compiler read the same files) degrades to the file start.
func linePos(tf *token.File, line, col int) token.Pos {
	if tf == nil {
		return token.NoPos
	}
	if line < 1 || line > tf.LineCount() {
		return tf.Pos(0)
	}
	p := tf.LineStart(line)
	if col > 1 {
		// Advance within the line without crossing into the next one.
		off := tf.Offset(p) + col - 1
		if off < tf.Size() {
			np := tf.Pos(off)
			if tf.Line(np) == line {
				p = np
			}
		}
	}
	return p
}
