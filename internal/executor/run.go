package executor

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"caribou/internal/dag"
	"caribou/internal/platform"
	"caribou/internal/pubsub"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/workloads"
)

// Invoke starts one workflow invocation with the given input class at the
// current virtual time and returns its ID. The request originates at the
// home region (traffic sources are fixed at home, §9.1).
func (e *Engine) Invoke(class workloads.InputClass) (uint64, error) {
	e.nextID++
	id := e.nextID
	inv := &invocation{
		rec:         platform.NewInvocationRecord(e.wl.Name, id, string(class)),
		class:       class,
		stagedBytes: make(map[dag.NodeID]float64),
		sfState:     make(map[dag.NodeID]*sfJoin),
	}
	inv.rec.Succeeded = true
	e.live[id] = inv
	e.tel.invocations.Inc()

	if e.mode == ModeStepFunctions {
		return id, e.invokeStepFunctions(id, inv)
	}

	now := e.p.Scheduler().Now()
	var offset time.Duration
	if e.mode == ModeCaribou {
		// The home endpoint consults the active DP to route the
		// request (§6.2) unless this invocation is pinned home for
		// benchmarking. The KV read's latency is charged inside the
		// entry function (beginExecution), where the wrapper performs
		// it in the real system — that is where it counts toward the
		// measured service time.
		inv.rec.Services.KVReads[e.home]++
		if e.rng.Bool(e.benchFr) {
			inv.rec.Benchmarked = true
		} else if p := e.plans.ActivePlan(now); p != nil {
			inv.plan = p
		}
	}

	entry := e.wl.DAG.Start()
	entryRegion := e.resolveRegion(inv, entry)
	bytes := e.wl.EntryBytes[class] + controlMessageBytes
	inv.rec.Services.SNSPublishes[e.home]++
	e.logTransfer(inv, platform.TransferEvent{
		Kind: platform.TransferEntry, From: e.home, To: entryRegion, ToNode: entry, Bytes: bytes, At: now.Add(offset),
	})
	inv.pending++
	latency := offset + publishCallLatency + e.p.MessageLatency(e.home, entryRegion, bytes)
	return id, e.publish(id, entry, entryRegion, latency)
}

// InvokeAt schedules an invocation at a future virtual time.
func (e *Engine) InvokeAt(t time.Time, class workloads.InputClass, onErr func(error)) {
	e.p.Scheduler().At(t, func() {
		if _, err := e.Invoke(class); err != nil && onErr != nil {
			onErr(err)
		}
	})
}

func (e *Engine) publish(inv uint64, node dag.NodeID, r region.ID, latency time.Duration) error {
	data, err := json.Marshal(envelope{Inv: inv, Node: node})
	if err != nil {
		return fmt.Errorf("executor: marshal envelope: %w", err)
	}
	topic := platform.FunctionRef{Workflow: e.wl.Name, Node: node, Region: r}.Topic()
	return e.p.Publish(topic, data, latency)
}

// resolveRegion maps a stage to its execution region: the active plan's
// assignment when a live deployment exists there, otherwise the home
// region — the fallback that guarantees no invocation is routed through an
// invalid deployment (§6.1).
func (e *Engine) resolveRegion(inv *invocation, node dag.NodeID) region.ID {
	r := e.home
	if inv.plan != nil {
		if pr, ok := inv.plan[node]; ok {
			r = pr
		}
	}
	if r != e.home {
		ref := platform.FunctionRef{Workflow: e.wl.Name, Node: node, Region: r}
		if !e.p.IsDeployed(ref) {
			return e.home
		}
	}
	return r
}

// onArrive handles delivery of an invocation message at a deployment: the
// invocation waits for region execution capacity, the function environment
// spins up (cold start), sync nodes load their staged predecessor data,
// and the stage executes for a sampled duration.
func (e *Engine) onArrive(ref platform.FunctionRef, msg pubsub.Message) error {
	var env envelope
	if err := json.Unmarshal(msg.Data, &env); err != nil {
		return fmt.Errorf("executor: bad envelope on %s: %w", msg.Topic, err)
	}
	inv, ok := e.live[env.Inv]
	if !ok {
		// Duplicate delivery for a finished invocation: acknowledge.
		return nil
	}
	if !inv.started {
		inv.started = true
		inv.rec.Start = e.p.Scheduler().Now()
	}
	// Region capacity: queueing (if any) counts toward service time.
	e.p.AcquireExecutionSlot(ref.Region, func() {
		e.beginExecution(ref, env.Inv, env.Node)
	})
	return nil
}

// beginExecution runs once a capacity slot is held; it must release the
// slot when the execution finishes.
func (e *Engine) beginExecution(ref platform.FunctionRef, id uint64, node dag.NodeID) {
	inv, ok := e.live[id]
	now := e.p.Scheduler().Now()
	if !ok {
		e.p.ReleaseExecutionSlot(ref.Region)
		return
	}

	coldDelay := e.p.ColdStartPenalty(ref, e.wl.ImageBytes)
	cold := coldDelay > 0
	delay := coldDelay

	if e.mode == ModeCaribou && node == e.wl.DAG.Start() {
		// The entry wrapper's DP fetch (§6.2) happens inside the
		// first function: its latency is part of the end-to-end
		// service time Fig 12 measures.
		delay += e.p.KVAccessLatency(ref.Region, e.home)
	}

	if e.wl.DAG.IsSync(node) {
		// Load intermediate data staged by predecessors from the
		// workflow's KV table at home (§4, Fig 5).
		staged := inv.stagedBytes[node]
		inv.rec.Services.KVReads[e.home]++
		e.logTransfer(inv, platform.TransferEvent{
			Kind: platform.TransferKVData, From: e.home, To: ref.Region, ToNode: node, Bytes: staged, At: now,
		})
		load, err := e.p.Net().TransferTime(e.home, ref.Region, staged)
		if err != nil {
			load = 0
		}
		delay += e.p.KVAccessLatency(ref.Region, e.home) + load
	}

	reg, _ := e.p.Catalogue().Get(ref.Region)
	durSec, util, prof := e.sampleExecution(inv, id, node, reg.PerfFactor)
	inv.rec.Executions = append(inv.rec.Executions, platform.ExecutionEvent{
		Node: node, Region: ref.Region, Start: now.Add(delay),
		DurationSec: durSec, InitSec: coldDelay.Seconds(),
		MemoryMB: prof.MemoryMB, CPUUtil: util, ColdStart: cold,
	})
	e.p.Scheduler().After(delay+secs(durSec), func() {
		e.p.ReleaseExecutionSlot(ref.Region)
		e.onNodeComplete(id, node, ref.Region)
	})
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// onNodeComplete runs the wrapper's post-execution logic: invoke or skip
// each successor, stage data for synchronization nodes, and write terminal
// results back to home storage.
func (e *Engine) onNodeComplete(id uint64, node dag.NodeID, src region.ID) {
	inv, ok := e.live[id]
	if !ok {
		return
	}
	now := e.p.Scheduler().Now()
	if now.After(inv.maxEnd) {
		inv.maxEnd = now
	}

	var offset time.Duration
	for _, edge := range e.wl.DAG.Out(node) {
		taken := e.branchTaken(id, edge)
		if taken {
			if e.wl.DAG.IsSync(edge.To) {
				offset = e.sendToSync(inv, id, edge, src, offset)
			} else {
				offset = e.sendDirect(inv, id, edge, src, offset)
			}
		} else {
			offset = e.skipEdge(inv, id, edge, src, offset)
		}
	}

	if len(e.wl.DAG.Out(node)) == 0 {
		e.writeOutput(inv, node, src)
	}

	inv.pending--
	e.maybeFinish(id, inv)
}

// writeOutput logs a terminal stage persisting its result to the
// workflow's fixed external storage at home. The write time is considered
// part of the recorded execution duration (profiles were calibrated
// including IO), so no extra virtual time is charged.
func (e *Engine) writeOutput(inv *invocation, node dag.NodeID, src region.ID) {
	out, ok := e.wl.OutputBytes[node]
	if !ok {
		return
	}
	bytes := out[inv.class]
	if bytes <= 0 {
		return
	}
	e.logTransfer(inv, platform.TransferEvent{
		Kind: platform.TransferOutput, From: src, To: e.home, FromNode: node, Bytes: bytes, At: e.p.Scheduler().Now(),
	})
}

// logTransfer appends ev to the invocation's record and counts it in the
// platform's transfer instruments (ev.At carries the simclock stamp).
func (e *Engine) logTransfer(inv *invocation, ev platform.TransferEvent) {
	inv.rec.Transfers = append(inv.rec.Transfers, ev)
	e.p.NoteTransfer(ev)
}

// sendDirect invokes a non-synchronization successor by publishing the
// intermediate data (with the piggybacked plan) to the successor's topic
// in its plan region.
func (e *Engine) sendDirect(inv *invocation, id uint64, edge dag.Edge, src region.ID, offset time.Duration) time.Duration {
	succRegion := e.resolveRegion(inv, edge.To)
	bytes := e.wl.Bytes(edge.From, edge.To, inv.class) + controlMessageBytes
	now := e.p.Scheduler().Now()
	inv.rec.Services.SNSPublishes[src]++
	e.logTransfer(inv, platform.TransferEvent{
		Kind: platform.TransferPayload, From: src, To: succRegion, FromNode: edge.From, ToNode: edge.To, Bytes: bytes, At: now.Add(offset),
	})
	inv.pending++
	latency := offset + publishCallLatency + e.p.MessageLatency(src, succRegion, bytes)
	if err := e.publish(id, edge.To, succRegion, latency); err != nil {
		inv.pending--
		inv.rec.Succeeded = false
	}
	return offset + publishCallLatency
}

// sampleExecution draws one node execution's duration and CPU utilization
// from their per-decision streams.
func (e *Engine) sampleExecution(inv *invocation, id uint64, node dag.NodeID, perfFactor float64) (durSec, util float64, prof workloads.NodeProfile) {
	rng := e.rngFor("dur", id, string(node), "")
	durSec = e.wl.SampleDuration(node, inv.class, perfFactor, rng)
	rng.Release()
	prof = e.wl.Profile(node)
	rng = e.rngFor("util", id, string(node), "")
	util = prof.CPUUtil * rng.Uniform(0.92, 1.05)
	rng.Release()
	if util > 1 {
		util = 1
	}
	return durSec, util, prof
}

// branchTaken decides whether a successor edge fires for this invocation.
func (e *Engine) branchTaken(id uint64, edge dag.Edge) bool {
	if !edge.Conditional {
		return true
	}
	rng := e.rngFor("branch", id, string(edge.From), string(edge.To))
	defer rng.Release()
	return rng.Bool(edge.Probability)
}

// rngFor acquires the deterministic per-invocation random stream for one
// decision, labelled <workflow>/<kind>/<inv>/<a>[/<b>]; the caller
// releases it once the decision is drawn. Seeding by (invocation, purpose)
// gives common random numbers across deployment strategies, so strategy
// comparisons are paired. The stream is pooled and the label built in the
// engine's scratch buffer: a decision allocates only its label string.
func (e *Engine) rngFor(kind string, inv uint64, a, b string) *simclock.Rand {
	l := append(e.label[:0], e.wl.Name...)
	l = append(append(l, '/'), kind...)
	l = strconv.AppendUint(append(l, '/'), inv, 10)
	l = append(append(l, '/'), a...)
	if b != "" {
		l = append(append(l, '/'), b...)
	}
	e.label = l
	return simclock.AcquireDerived(e.seed, string(l))
}
