// Command progdep is the dependency-loading fixture of deadcode: the test
// loads this package alone, and the only call of sink.Put is an interface
// call inside lib, a dependency outside the pattern set.
package main

import "antidope/internal/lint/testdata/src/progdep/lib"

type sink struct{ sum int }

// Put is reached only through lib.Sink, inside lib.Feed.
func (s *sink) Put(v int) { s.sum += v }

// Drop sits beside Put, and nothing calls it.
func (s *sink) Drop() { s.sum = 0 } // want "progdep.[(][*]sink[)].Drop is reached from no main"

func main() {
	lib.Feed(&sink{}, 1)
}
