// Package progcross is the cross-package call-graph fixture: its root
// reaches the wall clock four ways that need the graph to stitch type
// universes together or to follow a value out of the load — an interface
// method whose signature names another package's type, a stored callback
// whose parameter has that type, a closure handed to sort.Slice, and a
// func literal held in a package variable.
package progcross

import (
	"sort"
	"time"

	"antidope/internal/lint/testdata/src/progcross/lib"
)

// Ticker's method names lib's type, so its implementation in lib only
// matches when method signatures are compared by their printed form.
type Ticker interface {
	Tick(*lib.Req) float64
}

// Sim is the fixture simulation.
type Sim struct {
	t  Ticker
	cb func(*lib.Req) int
}

// New wires the implementations; the root never takes their values itself,
// so only the interface and dynamic-call edges lead there.
func New() *Sim {
	return &Sim{t: &lib.Clock{}, cb: lib.Handle}
}

// stamp is a func literal held in a package variable.
var stamp = func() int64 {
	return time.Now().UnixNano() // want "Run -> .*progcross.var.1 -> time.Now"
}

// Run is the fixture's simulation entry point.
//
//lint:root
func (s *Sim) Run(r *lib.Req) float64 {
	total := s.t.Tick(r)      // interface dispatch across packages
	total += float64(s.cb(r)) // stored callback with a cross-package parameter
	total += float64(stamp()) // func literal from a package variable
	xs := []float64{3, 1, 2}
	sort.Slice(xs, func(i, j int) bool { // closure handed outside the load
		return xs[i]+float64(time.Now().Unix()) < xs[j] // want "Run -> .*progcross.[(][*]Sim[)].Run.1 -> time.Now"
	})
	return total + xs[0]
}
