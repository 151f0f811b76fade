package executor

import (
	"fmt"
	"strconv"
	"time"

	"caribou/internal/platform"
	"caribou/internal/pubsub"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/workloads"
)

const entryPos = 0 // the start node leads the topological order

// Invoke starts one workflow invocation with the given input class at the
// current virtual time and returns its ID. The request originates at the
// home region (traffic sources are fixed at home, §9.1).
func (e *Engine) Invoke(class workloads.InputClass) (uint64, error) {
	e.nextID++
	id := e.nextID
	inv := &invocation{
		rec:   platform.NewInvocationRecord(e.wl.Name, id, string(class)),
		class: e.classIndex(class),
	}
	inv.rec.Executions = make([]platform.ExecutionEvent, 0, len(e.nodes))
	inv.rec.Transfers = make([]platform.TransferEvent, 0, e.maxTransfers)
	inv.rec.Succeeded = true
	e.live[id] = inv
	e.tel.invocations.Inc()

	if len(e.syncNodes) > 0 {
		inv.joins = make([]join, len(e.nodes))
	}
	if e.mode == ModeStepFunctions {
		return id, e.invokeStepFunctions(id, inv)
	}

	now := e.p.Scheduler().Now()
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

	entryRegion := e.resolveRegion(inv, entryPos)
	bytes := e.entry[inv.class] + controlMessageBytes
	inv.rec.Services.SNSPublishes[e.home]++
	e.logTransfer(inv, platform.TransferEvent{
		Kind: platform.TransferEntry, From: e.home, To: entryRegion, ToNode: e.nodes[entryPos].id, Bytes: bytes, At: now,
	})
	inv.pending++
	latency := publishCallLatency + e.p.MessageLatency(e.home, entryRegion, bytes)
	return id, e.publish(id, entryPos, entryRegion, latency)
}

// InvokeAt schedules an invocation at a future virtual time.
func (e *Engine) InvokeAt(t time.Time, class workloads.InputClass, onErr func(error)) {
	e.p.Scheduler().At(t, func() {
		if _, err := e.Invoke(class); err != nil && onErr != nil {
			onErr(err)
		}
	})
}

// publish sends invocation inv's message for stage pos to region r.
func (e *Engine) publish(inv uint64, pos int, r region.ID, latency time.Duration) error {
	env := sealEnvelope(inv, pos)
	if d := e.nodes[pos].deployed[r]; d.Live() {
		return d.Publish(env[:], latency)
	}
	// Only home is targeted without a live deployment: the message goes to
	// the topic one would own, for a deployment that appears before the
	// broker gives up; otherwise the drop fails the invocation.
	ref := platform.FunctionRef{Workflow: e.wl.Name, Node: e.nodes[pos].id, Region: r}
	return e.p.Publish(ref.Topic(), env[:], latency)
}

// resolveRegion maps a stage to its execution region: the active plan's
// assignment when a live deployment exists there, otherwise the home
// region — the fallback that guarantees no invocation is routed through an
// invalid deployment (§6.1).
func (e *Engine) resolveRegion(inv *invocation, pos int) region.ID {
	n := &e.nodes[pos]
	if r, ok := inv.plan[n.id]; ok && r != e.home && n.deployed[r].Live() {
		return r
	}
	return e.home
}

// onArrive handles delivery of an invocation message at stage pos's
// deployment in r: the invocation waits for region execution capacity, the
// function environment spins up (cold start), sync nodes load their staged
// data, and the stage executes for a sampled duration. A payload that is
// not an envelope for this stage is nacked.
func (e *Engine) onArrive(pos int, r region.ID, msg pubsub.Message) error {
	id, target, ok := openEnvelope(msg.Data)
	if !ok || target != pos {
		return fmt.Errorf("executor: bad envelope on %s", msg.Topic)
	}
	inv, ok := e.live[id]
	if !ok {
		// Duplicate delivery for a finished invocation: acknowledge.
		return nil
	}
	if !inv.started {
		inv.started = true
		inv.rec.Start = e.p.Scheduler().Now()
	}
	// Region capacity: queueing (if any) counts toward service time.
	e.p.AcquireExecutionSlot(r, func() {
		e.beginExecution(id, pos, r)
	})
	return nil
}

// beginExecution runs once a capacity slot is held; it must release the
// slot when the execution finishes.
func (e *Engine) beginExecution(id uint64, pos int, r region.ID) {
	inv, ok := e.live[id]
	now := e.p.Scheduler().Now()
	if !ok {
		e.p.ReleaseExecutionSlot(r)
		return
	}
	n := &e.nodes[pos]

	// Looked up now: a stage queued while its deployment was replaced warms the new one.
	coldDelay := n.deployed[r].ColdStartPenalty(e.wl.ImageBytes)
	cold := coldDelay > 0
	delay := coldDelay

	if e.mode == ModeCaribou && pos == entryPos {
		// The entry wrapper's DP fetch (§6.2) happens inside the
		// first function: its latency is part of the end-to-end
		// service time Fig 12 measures.
		delay += e.p.KVAccessLatency(r, e.home)
	}

	if n.inDeg > 1 {
		// Load intermediate data staged by predecessors from the
		// workflow's KV table at home (§4, Fig 5).
		staged := inv.joins[pos].staged
		inv.rec.Services.KVReads[e.home]++
		e.logTransfer(inv, platform.TransferEvent{
			Kind: platform.TransferKVData, From: e.home, To: r, ToNode: n.id, Bytes: staged, At: now,
		})
		load, err := e.p.Net().TransferTime(e.home, r, staged)
		if err != nil {
			load = 0
		}
		delay += e.p.KVAccessLatency(r, e.home) + load
	}

	reg, _ := e.p.Catalogue().Get(r)
	durSec, util := e.sampleExecution(inv, id, n, reg.PerfFactor)
	inv.rec.Executions = append(inv.rec.Executions, platform.ExecutionEvent{
		Node: n.id, Region: r, Start: now.Add(delay),
		DurationSec: durSec, InitSec: coldDelay.Seconds(),
		MemoryMB: n.prof.MemoryMB, CPUUtil: util, ColdStart: cold,
	})
	e.p.Scheduler().After(delay+secs(durSec), func() {
		e.p.ReleaseExecutionSlot(r)
		e.onNodeComplete(id, pos, r)
	})
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// onNodeComplete runs the wrapper's post-execution logic for stage pos,
// which ran in region src: invoke or skip each successor, stage data for
// synchronization nodes, and write terminal results back to home storage.
func (e *Engine) onNodeComplete(id uint64, pos int, src region.ID) {
	inv, ok := e.live[id]
	if !ok {
		return
	}
	now := e.p.Scheduler().Now()
	if now.After(inv.maxEnd) {
		inv.maxEnd = now
	}

	n := &e.nodes[pos]
	var offset time.Duration
	for i := range n.out {
		ed := &n.out[i]
		switch {
		case !e.branchTaken(id, ed):
			offset = e.skipEdge(inv, id, ed, src, offset)
		case ed.toSync:
			offset = e.sendToSync(inv, id, ed, src, offset)
		default:
			offset = e.sendDirect(inv, id, ed, src, offset)
		}
	}
	if len(n.out) == 0 {
		e.writeOutput(inv, n, src)
	}

	inv.pending--
	e.maybeFinish(id, inv)
}

// writeOutput logs a terminal stage persisting its result to the
// workflow's fixed external storage at home. The write time is considered
// part of the recorded execution duration (profiles were calibrated
// including IO), so no extra virtual time is charged.
func (e *Engine) writeOutput(inv *invocation, n *node, src region.ID) {
	bytes := n.output[inv.class]
	if bytes <= 0 {
		return
	}
	e.logTransfer(inv, platform.TransferEvent{
		Kind: platform.TransferOutput, From: src, To: e.home, FromNode: n.id, Bytes: bytes, At: e.p.Scheduler().Now(),
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
func (e *Engine) sendDirect(inv *invocation, id uint64, ed *edge, src region.ID, offset time.Duration) time.Duration {
	succRegion := e.resolveRegion(inv, ed.toPos)
	bytes := ed.bytes[inv.class] + controlMessageBytes
	inv.rec.Services.SNSPublishes[src]++
	e.logTransfer(inv, platform.TransferEvent{
		Kind: platform.TransferPayload, From: src, To: succRegion, FromNode: ed.From, ToNode: ed.To, Bytes: bytes, At: e.p.Scheduler().Now().Add(offset),
	})
	inv.pending++
	latency := offset + publishCallLatency + e.p.MessageLatency(src, succRegion, bytes)
	if err := e.publish(id, ed.toPos, succRegion, latency); err != nil {
		inv.pending--
		inv.rec.Succeeded = false
	}
	return offset + publishCallLatency
}

// sampleExecution draws one node execution's duration and CPU utilization
// from their per-decision streams.
func (e *Engine) sampleExecution(inv *invocation, id uint64, n *node, perfFactor float64) (durSec, util float64) {
	rng := e.rngFor("dur", id, string(n.id), "")
	durSec = rng.LogNormal(n.mu[inv.class], n.sigma) * perfFactor
	rng.Release()
	rng = e.rngFor("util", id, string(n.id), "")
	util = n.prof.CPUUtil * rng.Uniform(0.92, 1.05)
	rng.Release()
	if util > 1 {
		util = 1
	}
	return durSec, util
}

// branchTaken decides whether a successor edge fires for this invocation.
func (e *Engine) branchTaken(id uint64, ed *edge) bool {
	if !ed.Conditional {
		return true
	}
	rng := e.rngFor("branch", id, string(ed.From), string(ed.To))
	defer rng.Release()
	return rng.Bool(ed.Probability)
}

// rngFor acquires the deterministic per-invocation random stream for one
// decision, labelled <workflow>/<kind>/<inv>/<a>[/<b>]; the caller
// releases it once the decision is drawn. Seeding by (invocation, purpose)
// gives common random numbers across deployment strategies, so strategy
// comparisons are paired. The stream is pooled and its label is built and
// hashed in the engine's scratch buffer, so a decision allocates nothing.
func (e *Engine) rngFor(kind string, inv uint64, a, b string) *simclock.Rand {
	l := append(e.scratch[:0], e.wl.Name...)
	l = append(append(l, '/'), kind...)
	l = strconv.AppendUint(append(l, '/'), inv, 10)
	l = append(append(l, '/'), a...)
	if b != "" {
		l = append(append(l, '/'), b...)
	}
	e.scratch = l
	return simclock.AcquireRand(simclock.DeriveSeedBytes(e.seed, l))
}
