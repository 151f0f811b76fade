package executor

import "caribou/internal/platform"

// Step Functions-mode orchestration (§9.6 baseline): a first-party state
// machine in the home region drives the workflow with fast transitions,
// in-memory synchronization, and no KV or pub/sub traffic. Function
// executions themselves are identical (common random numbers), so the
// comparison isolates orchestration overhead.

func (e *Engine) invokeStepFunctions(id uint64, inv *invocation) error {
	e.logTransfer(inv, platform.TransferEvent{
		Kind: platform.TransferEntry, From: e.home, To: e.home, ToNode: e.nodes[entryPos].id, Bytes: e.entry[inv.class], At: e.p.Scheduler().Now(),
	})
	e.sfStart(inv, id, entryPos)
	return nil
}

// sfStart runs the stage at pos one state transition from now.
func (e *Engine) sfStart(inv *invocation, id uint64, pos int) {
	inv.pending++
	e.p.Scheduler().After(platform.StepFunctionsTransition, func() {
		e.sfRun(id, pos)
	})
}

// sfRun executes one stage at home under the orchestrator.
func (e *Engine) sfRun(id uint64, pos int) {
	inv, ok := e.live[id]
	if !ok {
		return
	}
	now := e.p.Scheduler().Now()
	if !inv.started {
		inv.started = true
		inv.rec.Start = now
	}
	n := &e.nodes[pos]
	delay := n.deployed[e.home].ColdStartPenalty(e.wl.ImageBytes)
	reg, _ := e.p.Catalogue().Get(e.home)
	durSec, util := e.sampleExecution(inv, id, n, reg.PerfFactor)
	inv.rec.Executions = append(inv.rec.Executions, platform.ExecutionEvent{
		Node: n.id, Region: e.home, Start: now.Add(delay),
		DurationSec: durSec, InitSec: delay.Seconds(),
		MemoryMB: n.prof.MemoryMB, CPUUtil: util, ColdStart: delay > 0,
	})
	e.p.Scheduler().After(delay+secs(durSec), func() {
		e.sfComplete(id, pos)
	})
}

func (e *Engine) sfComplete(id uint64, pos int) {
	inv, ok := e.live[id]
	if !ok {
		return
	}
	now := e.p.Scheduler().Now()
	if now.After(inv.maxEnd) {
		inv.maxEnd = now
	}
	n := &e.nodes[pos]
	for i := range n.out {
		ed := &n.out[i]
		if e.branchTaken(id, ed) {
			e.sfFollow(inv, id, ed)
		} else {
			e.sfSkip(inv, id, ed)
		}
	}
	if len(n.out) == 0 {
		e.writeOutput(inv, n, e.home)
	}
	inv.pending--
	e.maybeFinish(id, inv)
}

// sfFollow passes state along a taken edge: direct successors start after
// one transition; synchronization joins are tracked in the orchestrator's
// memory.
func (e *Engine) sfFollow(inv *invocation, id uint64, ed *edge) {
	if bytes := ed.bytes[inv.class]; bytes > 0 {
		e.logTransfer(inv, platform.TransferEvent{
			Kind: platform.TransferPayload, From: e.home, To: e.home, FromNode: ed.From, ToNode: ed.To, Bytes: bytes, At: e.p.Scheduler().Now(),
		})
	}
	if ed.toSync {
		e.sfJoinArrive(inv, id, ed.toPos, true)
		return
	}
	e.sfStart(inv, id, ed.toPos)
}

// sfSkip propagates an untaken conditional edge through the in-memory
// state machine.
func (e *Engine) sfSkip(inv *invocation, id uint64, ed *edge) {
	if ed.toSync {
		e.sfJoinArrive(inv, id, ed.toPos, false)
		return
	}
	e.sfSkipFrom(inv, id, ed.toPos)
}

// sfSkipFrom skips every out-edge of the node at pos.
func (e *Engine) sfSkipFrom(inv *invocation, id uint64, pos int) {
	out := e.nodes[pos].out
	for i := range out {
		e.sfSkip(inv, id, &out[i])
	}
}

func (e *Engine) sfJoinArrive(inv *invocation, id uint64, pos int, reached bool) {
	st := &inv.joins[pos]
	if reached {
		st.arrived++
	} else {
		st.skipped++
	}
	if st.arrived+st.skipped < e.nodes[pos].inDeg {
		return
	}
	if st.arrived == 0 {
		// Whole join skipped.
		e.sfSkipFrom(inv, id, pos)
		return
	}
	e.sfStart(inv, id, pos)
}
