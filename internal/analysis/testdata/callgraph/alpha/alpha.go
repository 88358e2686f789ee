// Package alpha is the callee side of the call-graph fixture: a plain
// function, a method, an interface implemented in the sibling package,
// and a function that reaches a nondeterminism source.
package alpha

import "time"

// Doer is implemented in package beta; calls through it must resolve to
// every module implementation, wherever declared.
type Doer interface {
	Do()
}

// Leaf is a plain cross-package call target.
func Leaf() {}

// Clock reaches a nondeterminism source directly.
func Clock() time.Time { return time.Now() }

// T carries a method-call target.
type T struct{}

// M is a method edge target.
func (T) M() {}

// Box is a generic type: a call through any instantiation must resolve to
// the declared method, the only one with a node.
type Box[T any] struct{ v T }

// Get is a method of a generic type.
func (b *Box[T]) Get() T { return b.v }

// NewBox is a generic function, called with an explicit instantiation.
func NewBox[T any](v T) *Box[T] { return &Box[T]{v: v} }
