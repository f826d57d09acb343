// Package fixture exercises the call-graph edge kinds the unit tests
// assert: a plain static call, a method value, a call made from inside a
// closure (attributed to the enclosing declared function), and a call
// made inside a method call's receiver.
package fixture

type T struct {
	n int
}

func (t T) M() int {
	return t.n
}

func target() int {
	return 1
}

// Static calls target directly.
func Static() int {
	return target()
}

// MethodValue captures t.M as a value; the edge MethodValue→T.M exists
// even though the eventual call through f is dynamic.
func MethodValue(t T) int {
	f := t.M
	return f()
}

// Closure calls target only from inside a literal; the edge belongs to
// Closure, the enclosing declared function.
func Closure() func() int {
	return func() int {
		return target()
	}
}

// Receiver calls newT only inside the receiver of a method call; both
// newT and T.M are its callees.
func Receiver() int {
	return newT().M()
}

func newT() T {
	return T{n: 2}
}
