// Fixture: string formatting and concatenation in the loops of hot roots
// (loaded as caribou/internal/montecarlo).
package fixture

import (
	"fmt"
	"strconv"
)

//caribou:hot
func sprintfInLoop(n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("mc/%d", i)) // want hotpath "fmt.Sprintf call parses its format per iteration" want hotpath "append to out grows in a hot loop"
	}
	return out
}

//caribou:hot
func concatInRange(names []string) []string {
	out := make([]string, 0, len(names))
	for _, name := range names {
		out = append(out, "mc/"+name) // want hotpath "string concatenation allocates per iteration"
	}
	return out
}

//caribou:hot
func plusEqualsInLoop(names []string) string {
	s := ""
	for _, name := range names {
		s += name // want hotpath "string += allocates per iteration"
	}
	return s
}

// Outside any loop of a root, formatting is fine.
//
//caribou:hot
func sprintfOutsideLoop(i int) string { return fmt.Sprintf("mc/%d", i) }

// Constant concatenation folds at compile time; fmt.Errorf is an error
// path that fires once and unwinds; strconv.AppendInt is the sanctioned
// in-loop builder.
//
//caribou:hot
func allowedInLoop(n int) ([]byte, error) {
	const prefix = "mc/" + "hour/"
	buf := make([]byte, 0, 16)
	for i := 0; i < n; i++ {
		buf = append(buf[:0], prefix...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		if len(buf) == 0 {
			return nil, fmt.Errorf("empty label %d", i)
		}
	}
	return buf, nil
}

//caribou:hot
func suppressed(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s = fmt.Sprintf("%s/%d", s, i) //caribou:allow hotpath fixture exercises suppression
	}
	return s
}
