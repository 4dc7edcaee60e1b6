package lint

import (
	"fmt"
	"go/types"
	"sort"
)

// DeadCode reports every declared function or method that no program
// entry point reaches over the call-graph facts layer. The roots are each
// main of a main package, each init, each package's variable
// initializers, and the methods the standard library calls through its
// own interfaces (stdlibCalled). A declaration that must stay without a
// caller in the load, such as a test oracle or an API another module
// calls, carries `//lint:allow deadcode -- <caller>`.
//
// A load without a main package (antidope-lint ./internal/core) has no
// entry points, so it reports nothing rather than every function.
var DeadCode = &ProgramAnalyzer{
	Name: "deadcode",
	Doc: "whole-program: report functions and methods that no main, init " +
		"or package variable initializer reaches",
	Run: runDeadCode,
}

// stdlibCalled names the methods the standard library invokes through
// fmt.Stringer, error, json.Marshaler, sort.Interface, heap.Interface
// and http.Handler; the graph cannot see those calls, since their call
// sites sit outside the load.
var stdlibCalled = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true,
}

func runDeadCode(p *Program) ([]Diagnostic, error) {
	hasMain := false
	for _, pkg := range p.Pkgs {
		hasMain = hasMain || pkg.Types.Name() == "main"
	}
	if !hasMain {
		return nil, nil
	}
	g := p.Graph()
	names := make([]string, 0, len(g.Nodes))
	for name := range g.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)

	var roots []*FuncNode
	for _, name := range names {
		if n := g.Nodes[name]; isEntry(n) {
			roots = append(roots, n)
		}
	}
	reached := g.Reach(roots)

	var diags []Diagnostic
	for _, name := range names {
		n := g.Nodes[name]
		if _, ok := reached[n]; ok || n.Obj == nil {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:     n.Pos,
			Message: fmt.Sprintf("%s is reached from no main, init or package variable", name),
		})
	}
	return diags, nil
}

// isEntry reports whether n runs without a caller in the load.
func isEntry(n *FuncNode) bool {
	if n.Obj == nil {
		return n.Name == varInitName(n.Pkg.Path)
	}
	if n.Obj.Type().(*types.Signature).Recv() != nil {
		return stdlibCalled[n.Obj.Name()]
	}
	return n.Obj.Name() == "init" || n.Obj.Name() == "main" && n.Pkg.Types.Name() == "main"
}
