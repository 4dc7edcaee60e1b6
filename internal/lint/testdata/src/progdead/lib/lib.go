// Package lib is the library half of the deadcode fixture. Loaded without
// its main package it has no entry point, and deadcode reports nothing.
package lib

// Unit is the type Square's method signature names.
type Unit struct{ Scale float64 }

// Square implements the fixture's Shape interface.
type Square struct{ Side float64 }

// Area is reached only through the interface call in main.
func (s Square) Area(u *Unit) float64 { return s.Side * s.Side * u.Scale }
