package lint

import (
	"fmt"
	"sort"
)

// The transitive forms of walltime and globalrand: instead of flagging
// every syntactic use (the per-package analyzers already do), these walk
// the call-graph facts and flag forbidden entry points that are REACHABLE
// from a simulation root — core.(*Simulation).Run or harness.(*Pool).Run.
// The diagnostic prints the full call chain, so "who drags the wall clock
// into a run?" is answered by the finding itself.
//
// Suppression is deliberately stricter than the per-package analyzers': a
// //lint:allow walltime on the sink line says "this call is intentional"
// and satisfies only the syntactic check. To assert the stronger claim —
// "this function may touch the wall clock even though a simulation can
// reach it" — the allow comment must sit at the chain head: on (or
// directly above) the declaration of the function containing the sink.
// harness.(*Telemetry).jobBegin is the canonical example: its job timer is
// annotated at both levels, with the reason documented once at the
// function head.

// WallTimeReach reports wall-clock entry points reachable from the
// simulation roots, with the call chain.
var WallTimeReach = &ProgramAnalyzer{
	Name: "walltime",
	Doc: "whole-program: forbid wall-clock entry points transitively " +
		"reachable from core.(*Simulation).Run / harness.(*Pool).Run; " +
		"prints the offending call chain",
	Run: func(p *Program) ([]Diagnostic, error) { return runReach(p, SinkWallTime) },
}

// GlobalRandReach reports math/rand uses reachable from the simulation
// roots, with the call chain.
var GlobalRandReach = &ProgramAnalyzer{
	Name: "globalrand",
	Doc: "whole-program: forbid math/rand and math/rand/v2 transitively " +
		"reachable from core.(*Simulation).Run / harness.(*Pool).Run; " +
		"prints the offending call chain",
	Run: func(p *Program) ([]Diagnostic, error) { return runReach(p, SinkGlobalRand) },
}

func runReach(p *Program, kind SinkKind) ([]Diagnostic, error) {
	g := p.Graph()
	roots := p.roots()
	if len(roots) == 0 {
		return nil, nil
	}
	parent := g.Reach(roots)

	// Deterministic iteration: sort reachable nodes by name.
	nodes := make([]*FuncNode, 0, len(parent))
	for n := range parent {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })

	fset := p.Fset()
	var diags []Diagnostic
	for _, n := range nodes {
		if len(n.Sinks) == 0 {
			continue
		}
		chain := Chain(parent, n)
		// Report each entry point once per source line, however often the
		// line uses it.
		seen := map[string]bool{}
		for _, s := range n.Sinks {
			pos := fset.Position(s.Pos)
			key := fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, s.Desc)
			if s.Kind != kind || seen[key] {
				continue
			}
			seen[key] = true
			diags = append(diags, Diagnostic{
				Pos: s.Pos,
				Message: fmt.Sprintf(
					"%s is reachable from a simulation root: %s -> %s "+
						"(transitive %s; to assert this function may use it, "+
						"put //lint:allow %s on its declaration)",
					s.Desc, chain, s.Desc, kind, kind),
				SuppressPos: n.Pos,
			})
		}
	}
	return diags, nil
}
