package lib

import "strconv"

// Used is called from main.
func Used() int { return helper() }

func helper() int { return 1 }

// Dead has no caller at all.
func Dead() {} // want `func Dead is reachable only from tests`

// OnlyTests is reached from lib_test.go alone.
func OnlyTests() int { return 2 } // want `func OnlyTests is reachable only from tests`

// DeadType is never mentioned.
type DeadType struct{} // want `type DeadType is reachable only from tests`

const deadConst = 3 // want `const deadConst is reachable only from tests`

var deadVar int // want `var deadVar is reachable only from tests`

// Registered is reached through a package var initialiser in main.
func Registered() string { return "r" }

// Named is live; String matches fmt.Stringer, so dynamic dispatch keeps
// it, while Other matches no interface and is never selected.
type Named struct{}

func (Named) String() string { return "named" }

func (Named) Other() {} // want `method Named.Other is reachable only from tests`

// Pair is generic: calls through an instance reach the origin method.
type Pair[T int | float64] struct{ A, B T }

func (p Pair[T]) Sum() T { return p.A + p.B }

func (p Pair[T]) Diff() T { return p.A - p.B } // want `method Pair.Diff is reachable only from tests`

// Kind is an iota group: using one member keeps them all.
type Kind int

const (
	First Kind = iota
	Second
	Third
)

func init() { initOnly() }

func initOnly() { _ = strconv.Itoa(0) }

// Kept is dead but allowlisted by name.
func Kept() {}
