// Package hotprobe is the hotalloc fixture: a buildable package whose
// //hot:allocfree annotations cover one genuinely allocation-free
// function, one function with a known-escaping closure, and one with a
// deliberate, annotated cold-path allocation. The analyzer shells out to
// the real compiler, so the wants here pin actual escape-analysis output.
package hotprobe

// Sum is allocation-free: everything stays on the stack.
//
//hot:allocfree
func Sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// Counter returns a closure that captures n, forcing both the variable
// and the func literal onto the heap — two escape decisions inside an
// annotated body.
//
//hot:allocfree
func Counter() func() int {
	n := 0              // want "heap-allocates"
	return func() int { // want "heap-allocates"
		n++
		return n
	}
}

// Grow's warm-up allocation is deliberate and carries a line-level allow,
// so only the closure findings above survive.
//
//hot:allocfree
func Grow(buf []int) []int {
	if cap(buf) == 0 {
		buf = make([]int, 0, 64) //lint:allow hotalloc -- deliberate cold-path warm-up
	}
	return append(buf, 1)
}

// Boxed is not annotated: its allocation is nobody's business.
func Boxed(v int) *int {
	return &v
}
