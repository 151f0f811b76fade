// Package lib holds one function per root and edge kind of the unreached
// check, one function nothing reaches, one allowed survivor and one
// stale allow.
package lib

import "strings"

// Static is reached by a static call from main.
func Static() {}

// ByValue is reached through a function value main takes.
func ByValue() int { return 1 }

// Shape is dispatched through by main.
type Shape interface{ Area() float64 }

// Square's Area is reached by interface dispatch on Shape.Area.
type Square struct{ Side float64 }

func (q Square) Area() float64 { return q.Side * q.Side }

// Named's String is reached through fmt.Stringer, a standard-library
// interface the module's packages import.
type Named struct{}

func (Named) String() string { return "named" }

// ByLen's methods are reached through sort.Interface.
type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// APIHelper is reached from the root package's exported API.
func APIHelper() string { return strings.ToUpper("v1") }

func init() { fromInit() }

// fromInit is reached from an init function.
func fromInit() {}

var table = fromInitializer()

// fromInitializer is reached from a package-level variable initializer.
func fromInitializer() []int { return []int{1} }

// Dead is reached by nothing.
func Dead() {} // want unreached "Dead is reached from no binary, root-package API, package initializer or standard-library interface"

// Oracle is kept for a test that checks results against it.
//
//caribou:allow unreached oracle of a fixture test
func Oracle() {}

// Reached is called by main, so its allow is stale.
//
//caribou:allow unreached once unreached // want allow "stale suppression: //caribou:allow unreached suppresses no finding"
func Reached() {}
