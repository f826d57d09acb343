// Package main is the unreached rule's fixture. main is its only root
// besides the package variable and the keep marker; every function below
// is reached one way the rule must follow, except those whose line ends in
// a want marker.
package main

import (
	"flag"
	"fmt"
)

// values is reached only through its conversion to flag.Value in main.
type values []string

func (v *values) String() string { return fmt.Sprint([]string(*v)) }

func (v *values) Set(s string) error {
	*v = append(*v, s)
	return nil
}

// Reset is a method of a converted type that flag.Value does not declare.
func (v *values) Reset() { *v = nil } // want

// label's String is reached through fmt, which finds it by type assertion
// on the any it is handed.
type label int

func (l label) String() string { return fmt.Sprintf("L%d", int(l)) }

// Weight is declared by no interface label is converted to.
func (l label) Weight() int { return int(l) } // want

type counter struct{ n int }

// newCounter is called only inside the receiver of a method call.
func newCounter() *counter { return &counter{} }

func (c *counter) add() *counter {
	c.n++
	return c
}

// scratch's initializer is the only caller of newScratch.
var scratch = []func() []int{func() []int { return newScratch() }}

func newScratch() []int { return make([]int, 4) }

// keptHelper is called by no program.
//
// lamovet:keep tests of another module call it
func keptHelper() int { return keptCallee() }

// keptCallee is reached from the keep-marked helper.
func keptCallee() int { return 1 }

// Exported is exported from the module's root package, which no program
// imports.
func Exported() int { return 3 } // want

// bareKeep's marker gives no reason, so it does not exempt it.
//
// lamovet:keep
func bareKeep() int { return 2 } // want

func unused() int { return 3 } // want

func main() {
	var v values
	flag.Var(&v, "v", "values")
	flag.Parse()
	fmt.Println(label(1), newCounter().add().n, len(scratch[0]()))
}
