package montecarlo

import (
	"fmt"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/region"
	"caribou/internal/simclock"
)

// The per-event oracle: the seed's estimator, arithmetic unchanged, kept as
// the independent reference production's one sampler (Snapshot) is held to.
// It walks the Inputs interface event by event with maps, prices carbon at
// every event (its own summation order) and asks Inputs for every transfer
// time (no affine model). It shares nothing with Compile or the dense
// samplers but the draw order and the series accumulator, which is why
// agreement with it — carbon to 1e-12, latency and cost to 1e-9 — says
// Compile's tables and the dense model are right. TestSnapshotMatchesEstimator,
// TestEstimatePathsAgree and TestDeepConditionalChainSkipPropagation
// compare against it.

// oracleEstimate evaluates plan as if in effect at `at`, solving at `now`
// (carbon beyond now comes from forecasts), one event at a time.
func (e *Estimator) oracleEstimate(plan dag.Plan, at, now time.Time) (*Estimate, error) {
	d := e.in.DAG()
	if len(plan) != d.Len() {
		return nil, fmt.Errorf("montecarlo: plan covers %d of %d stages", len(plan), d.Len())
	}
	intensity := make(map[region.ID]float64, len(plan)+1)
	need := append(plan.Regions(), e.in.Home())
	for _, r := range need {
		if _, ok := intensity[r]; ok {
			continue
		}
		v, err := e.in.IntensityAt(r, at, now)
		if err != nil {
			return nil, err
		}
		intensity[r] = v
	}

	// One stream per workflow, not per instant: estimates at different
	// hours see the same draws and differ only through intensity (the
	// Snapshot paths mirror this exactly).
	rng := simclock.DeriveRand(e.seed, "mc/"+d.Name())
	var acc seriesAcc
	for acc.samples() < MaxSamples {
		for i := 0; i < BatchSize; i++ {
			s, err := e.sampleOnce(plan, intensity, rng)
			if err != nil {
				return nil, err
			}
			acc.add(s)
		}
		if acc.converged() {
			break
		}
	}
	return acc.summarize()
}

// sampleOnce simulates one invocation under the plan. It mirrors the
// executor's structure: entry routing, direct pub/sub edges,
// KV staging and join for synchronization nodes, terminal write-back.
func (e *Estimator) sampleOnce(plan dag.Plan, intensity map[region.ID]float64, rng *simclock.Rand) (sample, error) {
	d := e.in.DAG()
	home := e.in.Home()
	book := e.in.CostBook()
	msgOverhead := e.in.MessageOverheadSeconds()
	var s sample

	txCarbon := func(from, to region.ID, bytes float64) {
		s.txCarbon += e.tx.Carbon(intensity[from], intensity[to], from == to, bytes)
		s.cost += book.EgressCost(from, to, bytes)
	}
	sns := func(r region.ID) { s.cost += book.SNSCost(r, 1) }
	kvRead := func() { s.cost += book.DynamoCost(home, 1, 0) }
	kvWrite := func() { s.cost += book.DynamoCost(home, 0, 1) }

	// executed[n] true → finish[n] holds its completion time.
	executed := make(map[dag.NodeID]bool, d.Len())
	finish := make(map[dag.NodeID]float64, d.Len())
	// For sync nodes: latest data-ready time among reached edges and
	// total staged bytes.
	syncReady := make(map[dag.NodeID]float64)
	syncStaged := make(map[dag.NodeID]float64)
	syncReached := make(map[dag.NodeID]bool)
	skipped := make(map[dag.NodeID]bool)

	// Entry: DP fetch at home plus routed entry payload.
	entry := d.Start()
	entryRegion := plan[entry]
	entryBytes := e.in.EntryBytes().Sample(rng.Float64()) + controlBytes
	kvRead()
	sns(home)
	txCarbon(home, entryRegion, entryBytes)
	entryLatency := e.in.KVAccessSeconds(home) + msgOverhead + e.in.TransferSeconds(home, entryRegion, entryBytes)

	start := make(map[dag.NodeID]float64, d.Len())
	start[entry] = entryLatency
	executed[entry] = true

	for _, n := range d.Nodes() {
		if skipped[n] {
			continue
		}
		if d.IsSync(n) {
			if !syncReached[n] {
				skipped[n] = true
				continue
			}
			r := plan[n]
			staged := syncStaged[n]
			// The completing predecessor sends the invoke message
			// (approximated as originating at home, where the
			// annotation table lives); the sync node then loads its
			// staged data from home.
			sns(home)
			txCarbon(home, r, controlBytes)
			arrive := syncReady[n] + msgOverhead + e.in.TransferSeconds(home, r, controlBytes)
			load := e.in.KVAccessSeconds(r) + e.in.TransferSeconds(home, r, staged)
			kvRead()
			txCarbon(home, r, staged)
			start[n] = arrive + load
			executed[n] = true
		} else if n != entry {
			if !executed[n] {
				continue
			}
		}

		r := plan[n]
		dist, err := e.in.ExecDuration(n, r)
		if err != nil {
			return s, err
		}
		dur := dist.Sample(rng.Float64())
		util := e.in.CPUUtil(n)
		mem := e.in.MemoryMB(n)
		finish[n] = start[n] + dur
		if finish[n] > s.latency {
			s.latency = finish[n]
		}
		s.execCarbon += carbon.ExecutionCarbon(intensity[r], mem, dur, util)
		s.cost += book.Prices(r).ExecutionCost(mem, dur)

		out := d.Out(n)
		if len(out) == 0 {
			if ob := e.in.OutputBytes(n); ob != nil {
				txCarbon(r, home, ob.Sample(rng.Float64()))
			}
			continue
		}
		for _, edge := range out {
			taken := !edge.Conditional || rng.Bool(e.in.EdgeProbability(edge))
			if !taken {
				e.propagateSkip(edge, skipped, syncReached, syncReady, finish[n])
				kvWrite() // skip annotation
				continue
			}
			var bytes float64
			if bd := e.in.EdgeBytes(edge.From, edge.To); bd != nil {
				bytes = bd.Sample(rng.Float64())
			}
			if d.IsSync(edge.To) {
				// Stage data at home and annotate.
				kvWrite()
				kvWrite()
				txCarbon(r, home, bytes)
				ready := finish[n] + e.in.TransferSeconds(r, home, bytes) + e.in.KVAccessSeconds(r)
				if ready > syncReady[edge.To] {
					syncReady[edge.To] = ready
				}
				syncStaged[edge.To] += bytes
				syncReached[edge.To] = true
			} else {
				sns(r)
				total := bytes + controlBytes
				txCarbon(r, plan[edge.To], total)
				arrive := finish[n] + msgOverhead + e.in.TransferSeconds(r, plan[edge.To], total)
				if arrive > start[edge.To] {
					start[edge.To] = arrive
				}
				executed[edge.To] = true
			}
		}
	}
	return s, nil
}

// propagateSkip marks the downstream effect of an untaken edge: non-sync
// descendants are skipped; edges into sync nodes count as annotated
// skipped, which here simply means they do not contribute to readiness.
// The walk is iterative with an explicit stack in the recursive form's
// DFS preorder — recursion depth on a long chain of conditional edges is
// bounded only by the DAG size, so a pathological workflow could
// otherwise exhaust the goroutine stack.
func (e *Estimator) propagateSkip(edge dag.Edge, skipped map[dag.NodeID]bool, syncReached map[dag.NodeID]bool, syncReady map[dag.NodeID]float64, at float64) {
	d := e.in.DAG()
	stack := make([]dag.Edge, 0, 16)
	stack = append(stack, edge)
	for len(stack) > 0 {
		ed := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.IsSync(ed.To) {
			// Annotation time could delay firing when the skip arrives
			// last; model by advancing readiness without marking reached.
			if at > syncReady[ed.To] && syncReached[ed.To] {
				syncReady[ed.To] = at
			}
			continue
		}
		if skipped[ed.To] {
			continue
		}
		skipped[ed.To] = true
		out := d.Out(ed.To)
		for i := len(out) - 1; i >= 0; i-- {
			stack = append(stack, out[i])
		}
	}
}
