// Fixture: per-iteration allocation regressions in the loop of a hot root
// (loaded as caribou/internal/montecarlo; //caribou:hot makes replayAll's
// loop body hot).
package montecarlo

import "fmt"

func box(v any) any { return v }

//caribou:hot
func replayAll(samples []float64) []string {
	var labels []string
	for i, s := range samples {
		labels = append(labels, fmt.Sprintf("s%d", i)) // want hotpath "append to labels grows in a hot loop" want hotpath "fmt.Sprintf call parses its format per iteration"
		_ = box(s)                                     // want hotpath "float64 boxed into interface parameter"
		cb := func() float64 { return s }              // want hotpath "closure literal allocates per iteration"
		_ = cb()
	}
	return labels
}
