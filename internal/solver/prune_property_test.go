package solver

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/montecarlo"
	"caribou/internal/region"
	"caribou/internal/stats"
	"caribou/internal/telemetry"
)

// spreadInputs overlays skewed exec durations (sd/mean ≈ 1.6 per draw) on
// a fakeInputs chain. The solver fixtures otherwise use constant
// distributions, which converge at the first batch boundary — the prune
// check at a boundary only runs for lanes that are still live, so without
// spread the exact-pruning machinery would never fire and a pruning
// parity test would be vacuous.
type spreadInputs struct {
	*fakeInputs
}

func (s *spreadInputs) ExecDuration(n dag.NodeID, _ region.ID) (*stats.Distribution, error) {
	base := s.durations[n]
	d := stats.NewDistribution(12)
	for i := 0; i < 9; i++ {
		d.Add(base)
	}
	d.Add(12 * base)
	return d, nil
}

// randomSpreadChain derives a chain workload from a seed: 2–5 stages
// (covering both the exhaustive and HBSS paths), random per-stage
// durations, and random inter-stage payload sizes. The home region draws
// a LOW carbon intensity and the alternatives draw high ones — pruning
// can only prove a candidate hopeless when it is far worse than the
// incumbent, and the incumbent search starts from home, so a dirty home
// (the default fixture) would leave every bound below its threshold.
func randomSpreadChain(t *testing.T, seed int64) *spreadInputs {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(4)
	in := chainInputs(t, n)
	var prev dag.NodeID
	for i := 0; i < n; i++ {
		id := dag.NodeID(string(rune('a' + i)))
		in.durations[id] = 0.5 + 3.5*rng.Float64()
		if prev != "" {
			in.bytes[[2]dag.NodeID{prev, id}] = 1e5 + 5e6*rng.Float64()
		}
		prev = id
	}
	in.intensity = map[region.ID]float64{
		region.USEast1:    20 + 40*rng.Float64(),
		region.USWest1:    300 + 150*rng.Float64(),
		region.USWest2:    300 + 150*rng.Float64(),
		region.CACentral1: 300 + 150*rng.Float64(),
	}
	return &spreadInputs{in}
}

// TestQuickPruningPreservesSolveExactly is the satellite property test of
// the exact-pruning contract: across random workloads, seeds, and
// objective priorities, a solve with batched evaluation and bound-based
// pruning (the default) must select the identical winning plan and a
// byte-identical winner estimate as a solve on the untaped reference path
// (UntapedEstimates), where every candidate is always evaluated to
// completion.
// The workloads use spread durations so candidates stay unconverged
// across several batch boundaries and pruning genuinely fires (asserted
// via the montecarlo.pruned_candidates counter at the end).
func TestQuickPruningPreservesSolveExactly(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	t.Cleanup(telemetry.Disable)
	pruned := rec.Counter("montecarlo.pruned_candidates")

	solve := func(in montecarlo.Inputs, seed int64, prio Priority, untaped bool) (Result, bool) {
		s, err := New(Config{
			Inputs:           in,
			Estimator:        montecarlo.New(in, carbon.BestCase(), seed),
			Objective:        Objective{Priority: prio, Tolerances: Tolerances{Latency: Tol(50)}},
			Seed:             seed,
			UntapedEstimates: untaped,
		})
		if err != nil {
			t.Log(err)
			return Result{}, false
		}
		res, err := s.SolveOne(t0, t0)
		if err != nil {
			t.Log(err)
			return Result{}, false
		}
		return res, true
	}

	f := func(seed int16, prioSel uint8) bool {
		prio := []Priority{PriorityCarbon, PriorityCost, PriorityLatency}[int(prioSel)%3]
		in := randomSpreadChain(t, int64(seed))
		batched, ok := solve(in, int64(seed), prio, false)
		if !ok {
			return false
		}
		plain, ok := solve(in, int64(seed), prio, true)
		if !ok {
			return false
		}
		if !maps.Equal(batched.Plan, plain.Plan) {
			t.Logf("seed %d prio %v: batched plan %v != untaped %v", seed, prio, batched.Plan, plain.Plan)
			return false
		}
		if *batched.Estimate != *plain.Estimate {
			t.Logf("seed %d prio %v: estimates diverge: %+v vs %+v", seed, prio, batched.Estimate, plain.Estimate)
			return false
		}
		return true
	}
	// The quick source is pinned so the drawn workloads — and hence
	// whether the firing assertion below can be checked — are the same
	// every run; the property itself holds for any seed.
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	if pruned.Value() == 0 {
		t.Error("pruning never fired across the property runs — the parity check was vacuous")
	}
}
