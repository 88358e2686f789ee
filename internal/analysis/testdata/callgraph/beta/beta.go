// Package beta is the caller side of the call-graph fixture: one
// function per edge mode, a mutual-recursion cycle, and an annotated
// root whose taint walk must terminate on that cycle.
package beta

import "example.com/cg/alpha"

// Static calls a package function and a concrete method directly.
func Static() {
	alpha.Leaf()
	var t alpha.T
	t.M()
}

// Dynamic calls through a function value: one ref edge for taking the
// value, one dynamic edge resolved by signature identity against the
// address-taken set.
func Dynamic() {
	f := alpha.Leaf
	f()
}

// Via calls through an interface; edges go to the matching method of
// every module type implementing it.
func Via(d alpha.Doer) {
	d.Do()
}

// Impl satisfies alpha.Doer.
type Impl struct{}

// Do is the interface-resolved target.
func (Impl) Do() {}

// Ping and Pong are mutually recursive; taint propagation must
// terminate on the cycle instead of revisiting it forever.
func Ping(n int) {
	if n > 0 {
		Pong(n - 1)
	}
}

// Pong closes the cycle and also reaches the nondeterminism source.
func Pong(n int) {
	alpha.Clock()
	Ping(n)
}

// Spawn exercises the go and defer edge modes.
func Spawn() {
	go alpha.Leaf()
	defer alpha.Leaf()
}

// Root is the annotated entry point: its only path to time.Now runs
// through the Ping/Pong cycle.
//
//geolint:deterministic
func Root() {
	Ping(3)
}

// MethodValue takes a bound method as a function value: one ref edge for
// the reference, then a dynamic call resolved by signature identity —
// which now includes the method itself in the address-taken set.
func MethodValue() {
	var t alpha.T
	f := t.M
	f()
}

// DeferredClosure defers a function literal: the literal's body is
// attributed to the enclosing declaration (a static edge to Leaf), and
// the deferred invocation is a defer-mode dynamic site.
func DeferredClosure() {
	defer func() {
		alpha.Leaf()
	}()
}

// GoInRange launches a goroutine inside a range body; the go mode must
// survive the loop nesting.
func GoInRange(xs []int) {
	for range xs {
		go alpha.Clock()
	}
}

// Generic calls an explicitly instantiated function and a method of the
// instantiated type: both are static edges to the generic declarations.
func Generic() int {
	b := alpha.NewBox[int](1)
	return b.Get()
}
