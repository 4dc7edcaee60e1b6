package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the lint suite's cross-package facts layer: an approximate
// whole-program call graph over every loaded package, built once per run
// and shared by the program analyzers (transitive walltime/globalrand,
// deadcode).
//
// The graph is deliberately over-approximate — it must never miss a path
// from a root to a non-deterministic sink, or keep a live function off the
// reachable set, at the cost of some spurious edges:
//
//   - Static calls resolve through the type checker (including method
//     calls on concrete receivers).
//   - Interface method calls, and interface method values, edge to every
//     concrete method in the program with the same name and the same
//     printed parameter and result types (sigKey).
//   - Calls through func values (the engine firing a scheduled callback,
//     a pre-bound method value, a stored closure) edge to every
//     address-taken function or closure in the program with the same
//     sigKey — the graph never needs to know *which* callback a dynamic
//     call site fires, only which ones it could.
//   - Taking a function's value, or creating a literal, is itself an edge
//     from the enclosing function: the value may be handed to code outside
//     the load (a comparator passed to sort.Slice) that calls it invisibly.
//     A literal called where it is written (func(){…}(), or after defer
//     or go) is no value: that edge is its only caller, and it answers no
//     dynamic call.
//   - Package-level var initializers are walked into one node per package,
//     named "pkg/path.var", so a literal stored in a package variable is a
//     node too.
//
// Types are compared by their printed form, never by identity: each
// package is type-checked against its dependencies' export data, so the
// same named type seen from two packages is two distinct types.Type values
// that print alike.
//
// Function literals are first-class nodes named parent$n, so a chain
// through a pre-bound callback reads naturally in diagnostics.

// SinkKind classifies the non-deterministic entry points the facts layer
// records while walking function bodies.
type SinkKind string

const (
	// SinkWallTime marks a call to one of time's wall-clock entry points
	// (the same set the per-package walltime analyzer forbids).
	SinkWallTime SinkKind = "walltime"
	// SinkGlobalRand marks any use of math/rand or math/rand/v2.
	SinkGlobalRand SinkKind = "globalrand"
)

// SinkCall is one direct use of a forbidden entry point inside a function.
type SinkCall struct {
	Kind SinkKind
	Pos  token.Pos
	// Desc names the entry point, e.g. "time.Now" or "math/rand.Intn".
	Desc string
}

// FuncNode is one function, method, or function literal in the call graph.
type FuncNode struct {
	// Name is the stable display name: "pkg/path.Func",
	// "pkg/path.(*T).Method", or "pkg/path.Func$1" for literals.
	Name string
	// Obj is the type-checker object; nil for function literals.
	Obj *types.Func
	// Pkg is the loaded package that declares the function.
	Pkg *Package
	// Pos is the declaration position (the func keyword).
	Pos token.Pos
	// Calls are the outgoing edges in source order.
	Calls []CallEdge
	// Sinks are direct uses of forbidden entry points in this body.
	Sinks []SinkCall

	// sig is the sigKey of the function's value type; empty for the
	// per-package variable-initializer node.
	sig string
}

// CallEdge is one possible call from a function.
type CallEdge struct {
	Callee *FuncNode
	// Pos is the call (or hand-off) site in the caller.
	Pos token.Pos
}

// CallGraph is the whole-program facts structure.
type CallGraph struct {
	// Nodes maps display name to node. Function literals get synthetic
	// names, so every node is addressable.
	Nodes map[string]*FuncNode

	byObj map[*types.Func]*FuncNode
	// addrTaken are functions whose value is taken somewhere (assigned,
	// stored, passed), keyed for dynamic-call resolution.
	addrTaken []*FuncNode
	// methodsByName indexes every concrete method in the program by name,
	// for interface-call resolution.
	methodsByName map[string][]*FuncNode
}

// BuildCallGraph constructs the facts layer over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:         map[string]*FuncNode{},
		byObj:         map[*types.Func]*FuncNode{},
		methodsByName: map[string][]*FuncNode{},
	}
	b := &graphBuilder{g: g, called: map[*ast.Ident]bool{}, inPlace: map[*ast.FuncLit]bool{}}
	// Pass 1: create nodes for every declared function and method, and
	// index concrete methods for interface resolution.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				name := funcDisplayName(obj)
				for i := 2; g.Nodes[name] != nil && obj.Name() == "init"; i++ {
					// A package may declare several init functions.
					name = fmt.Sprintf("%s#%d", funcDisplayName(obj), i)
				}
				node := &FuncNode{
					Name: name,
					Obj:  obj,
					Pkg:  pkg,
					Pos:  fd.Pos(),
					sig:  sigKey(obj.Type().(*types.Signature)),
				}
				g.Nodes[node.Name] = node
				g.byObj[obj] = node
				if fd.Recv != nil {
					g.methodsByName[obj.Name()] = append(g.methodsByName[obj.Name()], node)
				}
			}
		}
	}
	// Pass 2: walk bodies and package variable initializers, creating
	// literal nodes and collecting edges, sinks, and the address-taken set.
	for _, pkg := range pkgs {
		var inits []ast.Node
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if obj != nil && d.Body != nil {
						b.walkBody(g.byObj[obj], pkg, d.Body)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, v := range spec.(*ast.ValueSpec).Values {
							inits = append(inits, v)
						}
					}
				}
			}
		}
		if len(inits) > 0 {
			node := &FuncNode{Name: varInitName(pkg.Path), Pkg: pkg, Pos: inits[0].Pos()}
			g.Nodes[node.Name] = node
			b.walkBody(node, pkg, inits...)
		}
	}
	// Pass 3: resolve dynamic calls against the address-taken set.
	b.resolveDynamic()
	return g
}

type graphBuilder struct {
	g *CallGraph
	// dynCalls are call sites through func values, resolved after the
	// address-taken set is complete.
	dynCalls []dynCall
	// called marks identifiers in call position, which recordCall has
	// already classified; recordUse skips them.
	called map[*ast.Ident]bool
	// inPlace marks literals in call position, which run only there.
	inPlace map[*ast.FuncLit]bool
}

type dynCall struct {
	caller *FuncNode
	sig    string
	pos    token.Pos
}

// varInitName is the node name of a package's variable initializers.
// "var" is a keyword, so the name never collides with a declared function.
func varInitName(pkgPath string) string { return pkgPath + ".var" }

// walkBody collects edges, sinks, and nested literals for one function
// body (or, for the variable-initializer node, every initializer
// expression of its package). Nested FuncLits become their own nodes;
// statements inside them are attributed to the literal, not the parent.
func (b *graphBuilder) walkBody(node *FuncNode, pkg *Package, bodies ...ast.Node) {
	litCount := 0
	var walk func(n ast.Node, owner *FuncNode) bool
	walk = func(n ast.Node, owner *FuncNode) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			litCount++
			lit := &FuncNode{
				Name: fmt.Sprintf("%s$%d", node.Name, litCount),
				Pkg:  pkg,
				Pos:  e.Pos(),
			}
			if tv, ok := pkg.Info.Types[e]; ok {
				if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
					lit.sig = sigKey(sig)
				}
			}
			b.g.Nodes[lit.Name] = lit
			// A literal only runs if something calls its value: whoever
			// creates it may (it can escape to code outside the load), and
			// so may every dynamic call of its type, unless it is called
			// in place and so never becomes a value.
			owner.Calls = append(owner.Calls, CallEdge{Callee: lit, Pos: e.Pos()})
			if !b.inPlace[e] {
				b.g.addrTaken = append(b.g.addrTaken, lit)
			}
			ast.Inspect(e.Body, func(m ast.Node) bool { return walk(m, lit) })
			return false // children handled under the literal's identity
		case *ast.CallExpr:
			b.recordCall(owner, pkg, e)
			return true
		case *ast.Ident:
			b.recordUse(owner, pkg, e)
			return true
		}
		return true
	}
	for _, body := range bodies {
		ast.Inspect(body, func(n ast.Node) bool { return walk(n, node) })
	}
}

// recordCall classifies one call expression and adds the matching edge or
// sink. Non-call uses of function values are handled by recordUse; the
// callee identifier itself is marked so recordUse skips it.
func (b *graphBuilder) recordCall(owner *FuncNode, pkg *Package, call *ast.CallExpr) {
	callee := ast.Unparen(call.Fun)
	switch fn := callee.(type) {
	case *ast.Ident:
		b.called[fn] = true
	case *ast.SelectorExpr:
		b.called[fn.Sel] = true
	case *ast.FuncLit:
		// Called in place: walkBody's creation edge is the call.
		b.inPlace[fn] = true
		return
	}

	// Conversions and builtin calls are not calls for our purposes.
	if tv, ok := pkg.Info.Types[callee]; ok && tv.IsType() {
		return
	}
	switch fn := callee.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fn].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			b.addStaticEdge(owner, obj, call.Pos())
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fn]; ok {
			if fobj, ok := sel.Obj().(*types.Func); ok {
				if recvIsInterface(fobj) {
					b.addInterfaceEdges(owner, fobj, call.Pos())
				} else {
					b.addStaticEdge(owner, fobj, call.Pos())
				}
				return
			}
		} else if fobj, ok := pkg.Info.Uses[fn.Sel].(*types.Func); ok {
			// Package-qualified call: pkg.Fn(...).
			b.addStaticEdge(owner, fobj, call.Pos())
			return
		}
	}
	// Anything else with a function type is a dynamic call through a value.
	if tv, ok := pkg.Info.Types[callee]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			b.dynCalls = append(b.dynCalls, dynCall{caller: owner, sig: sigKey(sig), pos: call.Pos()})
		}
	}
}

// recordUse handles a non-call mention of a function: taking a method
// value, assigning a function to a variable, passing it as an argument.
// Such a function joins the address-taken set, and the enclosing function
// gets a direct may-call edge to it, since the value can be handed to a
// function outside the loaded set that invokes it invisibly. An interface
// method value edges to every method it could bind.
func (b *graphBuilder) recordUse(owner *FuncNode, pkg *Package, ident *ast.Ident) {
	obj, ok := pkg.Info.Uses[ident].(*types.Func)
	if !ok || b.called[ident] {
		return
	}
	if recvIsInterface(obj) {
		b.addInterfaceEdges(owner, obj, ident.Pos())
		return
	}
	node := b.nodeFor(obj)
	if node == nil {
		b.recordSinkUse(owner, obj, ident.Pos())
		return
	}
	owner.Calls = append(owner.Calls, CallEdge{Callee: node, Pos: ident.Pos()})
	b.g.addrTaken = append(b.g.addrTaken, node)
}

// nodeFor returns the graph node for a declared function, or nil when the
// function lives outside the loaded packages. Each package type-checks
// against export data of its dependencies, so the same function seen from
// an importing package is a different *types.Func than the one recorded
// from its defining package's syntax; the display-name fallback stitches
// those universes together, which is what makes cross-package edges work.
func (b *graphBuilder) nodeFor(obj *types.Func) *FuncNode {
	if n := b.g.byObj[origin(obj)]; n != nil {
		return n
	}
	return b.g.Nodes[funcDisplayName(origin(obj))]
}

func origin(obj *types.Func) *types.Func {
	if o := obj.Origin(); o != nil {
		return o
	}
	return obj
}

// addStaticEdge links caller to a known callee, or records a sink when the
// callee is a forbidden external entry point.
func (b *graphBuilder) addStaticEdge(owner *FuncNode, callee *types.Func, pos token.Pos) {
	if node := b.nodeFor(callee); node != nil {
		owner.Calls = append(owner.Calls, CallEdge{Callee: node, Pos: pos})
		return
	}
	b.recordSinkUse(owner, callee, pos)
}

// recordSinkUse records a use of an external function when it is one of
// the forbidden entry points.
func (b *graphBuilder) recordSinkUse(owner *FuncNode, callee *types.Func, pos token.Pos) {
	pkg := callee.Pkg()
	if pkg == nil {
		return
	}
	switch path := pkg.Path(); path {
	case "time":
		if wallTimeFuncs[callee.Name()] {
			owner.Sinks = append(owner.Sinks, SinkCall{
				Kind: SinkWallTime, Pos: pos, Desc: "time." + callee.Name(),
			})
		}
	case "math/rand", "math/rand/v2":
		owner.Sinks = append(owner.Sinks, SinkCall{
			Kind: SinkGlobalRand, Pos: pos, Desc: path + "." + callee.Name(),
		})
	}
}

// addInterfaceEdges links caller to every concrete method in the program
// that the interface call could dispatch to: same name, same sigKey.
func (b *graphBuilder) addInterfaceEdges(owner *FuncNode, iface *types.Func, pos token.Pos) {
	key := sigKey(iface.Type().(*types.Signature))
	for _, cand := range b.g.methodsByName[iface.Name()] {
		if cand.sig == key {
			owner.Calls = append(owner.Calls, CallEdge{Callee: cand, Pos: pos})
		}
	}
}

// resolveDynamic links every recorded dynamic call site to the
// address-taken functions with the same sigKey. A method value's key
// drops the receiver, as sigKey never prints it.
func (b *graphBuilder) resolveDynamic() {
	// Dedup the address-taken set while keeping a stable order.
	seen := map[*FuncNode]bool{}
	var targets []*FuncNode
	for _, n := range b.g.addrTaken {
		if !seen[n] {
			seen[n] = true
			targets = append(targets, n)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Name < targets[j].Name })
	b.g.addrTaken = targets

	bySig := map[string][]*FuncNode{}
	for _, t := range targets {
		bySig[t.sig] = append(bySig[t.sig], t)
	}
	for _, dc := range b.dynCalls {
		for _, t := range bySig[dc.sig] {
			dc.caller.Calls = append(dc.caller.Calls, CallEdge{Callee: t, Pos: dc.pos})
		}
	}
}

// sigKey prints a signature's parameter and result types, with full
// package paths, as the key that matches callers to callees across type
// universes. Parameter names are left out, so Tick(r *Req) and Tick(*Req)
// share a key, and so is the receiver.
func sigKey(sig *types.Signature) string {
	var sb strings.Builder
	for i, t := range [2]*types.Tuple{sig.Params(), sig.Results()} {
		if i > 0 {
			sb.WriteString(" ")
		}
		sb.WriteString("(")
		for j := 0; j < t.Len(); j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			if sig.Variadic() && i == 0 && j == t.Len()-1 {
				sb.WriteString("...")
			}
			sb.WriteString(types.TypeString(t.At(j).Type(), nil))
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// Reach computes the set of node names reachable from the given roots and
// the parent edge used to first reach each node (a BFS tree, so chains
// printed from it are shortest-first and deterministic).
func (g *CallGraph) Reach(roots []*FuncNode) map[*FuncNode]CallEdgeFrom {
	parent := map[*FuncNode]CallEdgeFrom{}
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := parent[r]; !ok && r != nil {
			parent[r] = CallEdgeFrom{}
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Calls {
			if _, ok := parent[e.Callee]; ok {
				continue
			}
			parent[e.Callee] = CallEdgeFrom{Caller: n, Pos: e.Pos}
			queue = append(queue, e.Callee)
		}
	}
	return parent
}

// CallEdgeFrom records how a node was first reached during BFS.
type CallEdgeFrom struct {
	Caller *FuncNode
	Pos    token.Pos
}

// Chain renders the call chain from a root to node as "a -> b -> c".
func Chain(parent map[*FuncNode]CallEdgeFrom, node *FuncNode) string {
	var names []string
	for n := node; n != nil; {
		names = append(names, n.Name)
		from, ok := parent[n]
		if !ok || from.Caller == nil {
			break
		}
		n = from.Caller
	}
	// Reverse into root-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// FindRoot resolves a root spec of the form "pkg/path.Func" or
// "pkg/path.(*Type).Method" to its node, or nil when absent (a partial
// load that does not include the root simply contributes no chains).
func (g *CallGraph) FindRoot(spec string) *FuncNode {
	return g.Nodes[spec]
}

// funcDisplayName renders a *types.Func as the stable node name.
func funcDisplayName(obj *types.Func) string {
	sig := obj.Type().(*types.Signature)
	pkgPath := ""
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		star := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			star = "*"
		}
		name := rt.String()
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name()
		}
		return fmt.Sprintf("%s.(%s%s).%s", pkgPath, star, name, obj.Name())
	}
	return pkgPath + "." + obj.Name()
}

func recvIsInterface(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}
