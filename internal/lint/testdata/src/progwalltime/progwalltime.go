// Package progwalltime is the transitive-walltime fixture: a miniature
// simulation whose Run entry point reaches the wall clock through a
// cross-package static chain, an interface dispatch, and a callback fired
// through a stored func value — the three edge kinds the call-graph facts
// layer must not lose. It also pins the suppression semantics: an allow on
// the sink line survives as a finding, an allow on the declaration does
// not. And it pins that a literal called in place is no func value: it
// neither fires as a dynamic call nor answers one.
package progwalltime

import (
	"time"

	"antidope/internal/lint/testdata/src/progwalltime/inner"
)

// Clock is dispatched through an interface value; the analyzer adds CHA
// edges to every implementation in the program.
type Clock interface {
	Tick() float64
}

// Sim is the fixture simulation.
type Sim struct {
	clk Clock
	cb  func() float64
}

// New wires the interface implementation and the stored callback the
// dynamic call in Run fires.
func New() *Sim {
	return &Sim{clk: inner.WallClock{}, cb: inner.Stamp}
}

// Run is the fixture's simulation entry point.
//
//lint:root
func (s *Sim) Run() float64 {
	total := float64(inner.Helper()) // cross-package static chain
	total += s.clk.Tick()            // interface dispatch
	if s.cb != nil {
		total += s.cb() // dynamic call through a stored func value
	}
	total += sinkAllowed()
	total += headAllowed()
	func() { total++ }() // runs this literal only, not every func() value
	return total
}

// stored is a func() value nothing calls. Run's in-place literal shares
// its type, and must not reach it.
var stored = func() { _ = time.Now() }

// sinkAllowed keeps its allow on the SINK line. That satisfies only the
// per-package walltime analyzer; the transitive finding anchors its
// suppression at this function's declaration and must survive.
func sinkAllowed() float64 {
	return float64(time.Now().UnixNano()) //lint:allow walltime -- sink-level only // want "reachable from a simulation root"
}

// headAllowed asserts the stronger claim — this whole function may touch
// the wall clock despite being reachable from a root — so the
// declaration-level allow silences the transitive finding.
//
//lint:allow walltime -- fixture: declaration-level assertion
func headAllowed() float64 {
	return float64(time.Now().UnixNano())
}

// Orphan is never called from the root: the reachability pass ignores it
// (the per-package walltime analyzer would still flag the sink).
func Orphan() float64 {
	return float64(time.Now().UnixNano())
}

// Detached is never called from the root either. Its literal runs in
// place, so the callback Run fires through s.cb, which shares the
// literal's type, cannot be it.
func Detached() float64 {
	return func() float64 { return float64(time.Now().UnixNano()) }()
}
