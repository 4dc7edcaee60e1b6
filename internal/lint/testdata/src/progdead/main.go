// Command progdead is the deadcode fixture: each live function here is
// reached by exactly one kind of edge or root, and the dead ones are
// reported at their declarations.
package main

import (
	"fmt"

	"antidope/internal/lint/testdata/src/progdead/lib"
)

// Shape's method names lib's type; lib.Square implements it.
type Shape interface {
	Area(*lib.Unit) float64
}

// table is the only reference to one: a package variable initializer.
var table = []func() int{one}

func one() int { return 1 }

type label struct{ s string }

// String is called only by fmt, through fmt.Stringer.
func (l label) String() string { return l.s }

func main() {
	var s Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(&lib.Unit{Scale: 1}), len(table), label{"x"})
}

func dead() int { return 0 } // want "progdead.dead is reached from no main"

type kept struct{}

func (kept) deadMethod() {} // want "progdead.[(]kept[)].deadMethod is reached from no main"

//lint:allow deadcode -- fixture: a declaration allow suppresses the finding
func allowed() {}
