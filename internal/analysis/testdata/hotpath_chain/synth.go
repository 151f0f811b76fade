// Fixture: allocations one and two calls below a hot root's loop (loaded
// as caribou/internal/controlplane). The loop bodies of expand are hot,
// so every function they call is hot in its whole body, transitively,
// and each report names the chain from the root.
package controlplane

import (
	"fmt"
	"strconv"
)

type synthesizer struct{ next uint64 }

//caribou:hot
func (sy *synthesizer) expand(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sy.one())
		sy.a(i)
	}
	return out
}

// one is the per-record helper: formatting and concatenation here run
// once per loop iteration of expand, one call below it.
func (sy *synthesizer) one() string {
	id := sy.next
	sy.next++
	label := fmt.Sprintf("cp/synth/%d", id)         // want hotpath "hot path (*synthesizer).expand -> (*synthesizer).one: fmt.Sprintf call parses its format per iteration"
	return label + "/" + strconv.FormatUint(id, 10) // want hotpath "hot path (*synthesizer).expand -> (*synthesizer).one: string concatenation allocates per iteration"
}

func (sy *synthesizer) a(i int) { sy.b(i) }

// b allocates two calls below the root's loop.
func (sy *synthesizer) b(i int) {
	keep(float64(i)) // want hotpath "hot path (*synthesizer).expand -> (*synthesizer).a -> (*synthesizer).b: float64 boxed into interface parameter allocates per iteration"
}

func keep(v any) { _ = v }
