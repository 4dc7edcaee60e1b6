// Package lib is the dependency half of the progdep fixture.
package lib

// Sink receives values.
type Sink interface{ Put(v int) }

// Feed hands v to s: the only call of Put in the program.
func Feed(s Sink, v int) { s.Put(v) }

// unused is dead too, but it lives in a dependency, where no analyzer
// reports.
func unused() {}
