// Package lib is the library side of the deadcode fixture: one function
// per kind of root and edge the reachability walk must follow, plus the
// unreachable declarations it must report.
package lib

import "fmt"

// hooks is a package-level declaration: Registered has no caller node,
// so the reference alone roots it.
var hooks = []func() string{Registered}

func init() { setup() }

// setup is reached from init only.
func setup() {}

// Registered is reached only through the package-level var.
func Registered() string { return "registered" }

// Celsius has a String method nothing in the module calls: fmt does.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// Shape is called through an interface.
type Shape interface{ Area() float64 }

// Square implements Shape.
type Square struct{ Side float64 }

// Area is reached only through the Shape.Area call in Total.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is an unreachable method.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want deadcode

// Total dispatches through the interface.
func Total(shapes []Shape) float64 {
	var t float64
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Apply calls a function value: the edge resolves by signature to every
// address-taken function of that type, so triple is reached.
func Apply(f func(int) int, x int) int { return f(x) }

func triple(x int) int { return 3 * x }

// Stack is generic; calls through an instantiation reach its declared
// methods.
type Stack[T any] struct{ xs []T }

// NewStack is called with an explicit instantiation.
func NewStack[T any]() *Stack[T] { return &Stack[T]{} }

// Add is a method of a generic type.
func (s *Stack[T]) Add(x T) { s.xs = append(s.xs, x) }

// Unused is an unreachable function.
func Unused() int { return 42 } // want deadcode

// Legacy is unreachable but excused; it also takes triple's address.
//
//geolint:ignore deadcode kept for a caller outside the module
func Legacy() func(int) int { return triple }
