// Command tool is the fixture's binary: main is a root of the unreached
// check, and every edge kind starts here.
package main

import (
	"fmt"
	"sort"

	"caribou/internal/lib"
)

func main() {
	lib.Static()     // static call
	f := lib.ByValue // function value
	var s lib.Shape = lib.Square{Side: 2}
	words := lib.ByLen{"ccc", "a", "bb"}
	sort.Sort(words)                               // sort.Interface: Len, Less, Swap
	fmt.Println(f(), s.Area(), lib.Named{}, words) // interface dispatch; fmt.Stringer
	lib.Reached()
}
