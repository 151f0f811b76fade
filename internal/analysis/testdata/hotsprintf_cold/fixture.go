// Fixture: no root, no report. The formatting and regrowth that the
// loop of a //caribou:hot function would report stay silent here: no
// root reaches sprintfInLoop, whatever package it sits in.
package fixture

import "fmt"

func sprintfInLoop(n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("row/%d", i))
	}
	return out
}
