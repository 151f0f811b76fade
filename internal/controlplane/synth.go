// synth.go converts streamed trace deltas into the invocation records the
// Metric Manager learns from. Tenants push aggregate deltas (a count, a
// class, a timestamp), not full per-invocation traces; the control plane
// re-expands them into representative records with seed-derived RNG
// streams, so a tenant's learned distributions — and therefore its plans —
// depend only on (tenant seed, delta sequence), never on arrival timing or
// scheduling. This is the same synthesis discipline the simulator's
// platform layer uses, scoped down to what §7's window needs: per-node
// durations, per-edge payloads, and conditional-edge outcomes.
package controlplane

import (
	"strconv"
	"time"

	"caribou/internal/dag"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/workloads"
)

// maxSynthPerDelta caps how many records one delta expands into. Token
// accrual always uses the delta's full invocation count; the cap only
// bounds the metric window's learning cost for very large deltas.
const maxSynthPerDelta = 16

// synthesizer expands trace deltas for one tenant.
type synthesizer struct {
	wl   *workloads.Workload
	home region.ID
	seed int64
	next uint64 // record ID counter
}

func newSynthesizer(wl *workloads.Workload, home region.ID, seed int64) *synthesizer {
	return &synthesizer{wl: wl, home: home, seed: seed}
}

// expand synthesizes up to maxSynthPerDelta records for a delta of n
// invocations of class at virtual time at, spreading record timestamps
// evenly across the window ending at at.
//
//caribou:hot
func (sy *synthesizer) expand(n int, class workloads.InputClass, at time.Time, window time.Duration) []*platform.InvocationRecord {
	if n <= 0 {
		return nil
	}
	count := n
	if count > maxSynthPerDelta {
		count = maxSynthPerDelta
	}
	if window <= 0 {
		window = time.Hour
	}
	gap := window / time.Duration(count)
	recs := make([]*platform.InvocationRecord, 0, count)
	for i := 0; i < count; i++ {
		start := at.Add(-window + time.Duration(i+1)*gap)
		recs = append(recs, sy.one(class, start))
	}
	return recs
}

// one synthesizes a single home-region invocation record starting at
// start. The RNG stream is derived from (tenant seed, record ID) alone;
// its label "cp/synth/<id>" is built and hashed in a stack buffer.
func (sy *synthesizer) one(class workloads.InputClass, start time.Time) *platform.InvocationRecord {
	id := sy.next
	sy.next++
	var buf [32]byte
	label := strconv.AppendUint(append(buf[:0], "cp/synth/"...), id, 10)
	rng := simclock.AcquireRand(simclock.DeriveSeedBytes(sy.seed, label))
	defer rng.Release()

	rec := platform.NewInvocationRecord(sy.wl.DAG.Name(), id, string(class))
	rec.Start = start
	rec.Succeeded = true
	rec.Transfers = append(rec.Transfers, platform.TransferEvent{
		Kind: platform.TransferEntry, From: sy.home, To: sy.home,
		Bytes: sy.wl.EntryBytes[class], At: start,
	})

	// Walk the DAG in topological order: the start node always runs,
	// downstream nodes run when an executed predecessor's edge fires
	// (conditional edges sampled at their historical probability).
	executed := map[dag.NodeID]bool{sy.wl.DAG.Start(): true}
	finish := map[dag.NodeID]time.Time{}
	end := start
	for _, nid := range sy.wl.DAG.Nodes() {
		if !executed[nid] {
			continue
		}
		at := start
		for _, e := range sy.wl.DAG.In(nid) {
			if f, ok := finish[e.From]; ok && f.After(at) {
				at = f
			}
		}
		prof := sy.wl.Profile(nid)
		dur := sy.wl.SampleDuration(nid, class, 1.0, rng)
		rec.Executions = append(rec.Executions, platform.ExecutionEvent{
			Node: nid, Region: sy.home, Start: at,
			DurationSec: dur, MemoryMB: prof.MemoryMB, CPUUtil: prof.CPUUtil,
		})
		done := at.Add(time.Duration(dur * float64(time.Second)))
		finish[nid] = done
		if done.After(end) {
			end = done
		}
		for _, e := range sy.wl.DAG.Out(nid) {
			if e.Conditional && rng.Float64() >= e.Probability {
				continue
			}
			executed[e.To] = true
			rec.Transfers = append(rec.Transfers, platform.TransferEvent{
				Kind: platform.TransferPayload, From: sy.home, To: sy.home,
				FromNode: e.From, ToNode: e.To,
				Bytes: sy.wl.Bytes(e.From, e.To, class), At: done,
			})
		}
	}
	for _, t := range sy.wl.DAG.Terminals() {
		if !executed[t] {
			continue
		}
		rec.Transfers = append(rec.Transfers, platform.TransferEvent{
			Kind: platform.TransferOutput, From: sy.home, To: sy.home,
			FromNode: t, Bytes: sy.wl.OutputBytes[t][class], At: finish[t],
		})
	}
	rec.End = end
	return rec
}
