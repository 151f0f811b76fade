package executor

import (
	"caribou/internal/dag"
	"caribou/internal/platform"
)

// Step Functions-mode orchestration (§9.6 baseline): a first-party state
// machine in the home region drives the workflow with fast transitions,
// in-memory synchronization, and no KV or pub/sub traffic. Function
// executions themselves are identical (common random numbers), so the
// comparison isolates orchestration overhead.

func (e *Engine) invokeStepFunctions(id uint64, inv *invocation) error {
	now := e.p.Scheduler().Now()
	bytes := e.wl.EntryBytes[inv.class]
	e.logTransfer(inv, platform.TransferEvent{
		Kind: platform.TransferEntry, From: e.home, To: e.home, ToNode: e.wl.DAG.Start(), Bytes: bytes, At: now,
	})
	inv.pending++
	e.p.Scheduler().After(platform.StepFunctionsTransition, func() {
		e.sfRun(id, e.wl.DAG.Start())
	})
	return nil
}

// sfRun executes one stage at home under the orchestrator.
func (e *Engine) sfRun(id uint64, node dag.NodeID) {
	inv, ok := e.live[id]
	if !ok {
		return
	}
	now := e.p.Scheduler().Now()
	if !inv.started {
		inv.started = true
		inv.rec.Start = now
	}
	ref := platform.FunctionRef{Workflow: e.wl.Name, Node: node, Region: e.home}
	delay := e.p.ColdStartPenalty(ref, e.wl.ImageBytes)
	reg, _ := e.p.Catalogue().Get(e.home)
	durSec, util, prof := e.sampleExecution(inv, id, node, reg.PerfFactor)
	inv.rec.Executions = append(inv.rec.Executions, platform.ExecutionEvent{
		Node: node, Region: e.home, Start: now.Add(delay),
		DurationSec: durSec, InitSec: delay.Seconds(),
		MemoryMB: prof.MemoryMB, CPUUtil: util, ColdStart: delay > 0,
	})
	e.p.Scheduler().After(delay+secs(durSec), func() {
		e.sfComplete(id, node)
	})
}

func (e *Engine) sfComplete(id uint64, node dag.NodeID) {
	inv, ok := e.live[id]
	if !ok {
		return
	}
	now := e.p.Scheduler().Now()
	if now.After(inv.maxEnd) {
		inv.maxEnd = now
	}
	for _, edge := range e.wl.DAG.Out(node) {
		taken := e.branchTaken(id, edge)
		if taken {
			e.sfFollow(inv, id, edge)
		} else {
			e.sfSkip(inv, id, edge)
		}
	}
	if len(e.wl.DAG.Out(node)) == 0 {
		e.writeOutput(inv, node, e.home)
	}
	inv.pending--
	e.maybeFinish(id, inv)
}

// sfFollow passes state along a taken edge: direct successors start after
// one transition; synchronization joins are tracked in the orchestrator's
// memory.
func (e *Engine) sfFollow(inv *invocation, id uint64, edge dag.Edge) {
	bytes := e.wl.Bytes(edge.From, edge.To, inv.class)
	now := e.p.Scheduler().Now()
	if bytes > 0 {
		e.logTransfer(inv, platform.TransferEvent{
			Kind: platform.TransferPayload, From: e.home, To: e.home, FromNode: edge.From, ToNode: edge.To, Bytes: bytes, At: now,
		})
	}
	if !e.wl.DAG.IsSync(edge.To) {
		inv.pending++
		e.p.Scheduler().After(platform.StepFunctionsTransition, func() {
			e.sfRun(id, edge.To)
		})
		return
	}
	e.sfJoinArrive(inv, id, edge.To, true)
}

// sfSkip propagates an untaken conditional edge through the in-memory
// state machine.
func (e *Engine) sfSkip(inv *invocation, id uint64, edge dag.Edge) {
	if e.wl.DAG.IsSync(edge.To) {
		e.sfJoinArrive(inv, id, edge.To, false)
		return
	}
	for _, out := range e.wl.DAG.Out(edge.To) {
		e.sfSkip(inv, id, out)
	}
}

func (e *Engine) sfJoinArrive(inv *invocation, id uint64, node dag.NodeID, reached bool) {
	st := inv.sfState[node]
	if st == nil {
		st = &sfJoin{}
		inv.sfState[node] = st
	}
	if reached {
		st.arrived++
	} else {
		st.skipped++
	}
	want := len(e.wl.DAG.In(node))
	if st.arrived+st.skipped < want {
		return
	}
	if st.arrived == 0 {
		// Whole join skipped.
		for _, out := range e.wl.DAG.Out(node) {
			e.sfSkip(inv, id, out)
		}
		return
	}
	inv.pending++
	e.p.Scheduler().After(platform.StepFunctionsTransition, func() {
		e.sfRun(id, node)
	})
}
