package executor

import (
	"bytes"
	"strconv"
	"time"

	"caribou/internal/platform"
	"caribou/internal/region"
)

// The synchronization protocol of §4: every edge into a synchronization
// node is annotated "reached" or "skipped" in the distributed KV store by
// the predecessor's wrapper (or by skip propagation). The condition of
// Eq 4.1 — all incoming edges annotated and at least one reached — is
// evaluated atomically with each annotation; the writer that completes the
// set invokes (or skips) the synchronization node. The KV value for one
// (invocation, sync node) is one byte per in-edge, in in-edge order.
const (
	edgeUnset byte = iota
	edgeReached
	edgeSkipped
)

// annotationKey names the KV entry holding the annotations of the sync
// node at pos for one invocation: sync/<workflow>/<inv>/<node>.
func (e *Engine) annotationKey(inv uint64, pos int) string {
	k := append(append(e.scratch[:0], "sync/"...), e.wl.Name...)
	k = strconv.AppendUint(append(k, '/'), inv, 10)
	k = append(append(k, '/'), e.nodes[pos].id...)
	e.scratch = k
	return string(k)
}

// annotate atomically records the state of one incoming edge of a sync
// node and reports whether this update completed the annotation set
// (fire) and whether any edge was reached. fire is true for exactly one
// annotate call per (invocation, node): the one that transitions the set
// to complete. An edge that is already annotated keeps its first state.
func (e *Engine) annotate(inv uint64, ed *edge, reached bool) (fire, anyReached bool) {
	want := e.nodes[ed.toPos].inDeg
	e.p.KV().Update(e.annotationKey(inv, ed.toPos), func(ann []byte, exists bool) ([]byte, bool) {
		if !exists || len(ann) != want {
			ann = make([]byte, want)
		}
		if ann[ed.slot] == edgeUnset {
			fire = bytes.Count(ann, []byte{edgeUnset}) == 1 // this edge completes the set
			ann[ed.slot] = edgeSkipped
			if reached {
				ann[ed.slot] = edgeReached
			}
		}
		anyReached = bytes.IndexByte(ann, edgeReached) >= 0
		return ann, true
	})
	return fire, anyReached
}

// sendToSync stages the edge's intermediate data in the workflow KV table
// at home, annotates the edge as reached, and — when this writer completes
// the condition — publishes the invocation message to the sync node's plan
// region. It returns the updated wrapper-time offset.
func (e *Engine) sendToSync(inv *invocation, id uint64, ed *edge, src region.ID, offset time.Duration) time.Duration {
	bytes := ed.bytes[inv.class]

	// Stage intermediate data.
	if bytes > 0 {
		inv.rec.Services.KVWrites[e.home]++
		e.logTransfer(inv, platform.TransferEvent{
			Kind: platform.TransferKVData, From: src, To: e.home, FromNode: ed.From, ToNode: ed.To, Bytes: bytes, At: e.p.Scheduler().Now().Add(offset),
		})
		store, err := e.p.Net().TransferTime(src, e.home, bytes)
		if err == nil {
			offset += store
		}
		offset += platform.KVAccessOverhead
		inv.joins[ed.toPos].staged += bytes
	}

	// Atomic annotation update.
	inv.rec.Services.KVWrites[e.home]++
	offset += e.p.KVAccessLatency(src, e.home)
	if fire, _ := e.annotate(id, ed, true); fire {
		// This writer completed the set; since it reached, the
		// condition of Eq 4.1 holds and it invokes the sync node.
		offset = e.invokeSync(inv, id, ed.toPos, src, offset)
	}
	return offset
}

// invokeSync publishes the (small) invocation message for a satisfied
// synchronization node to its plan region.
func (e *Engine) invokeSync(inv *invocation, id uint64, pos int, src region.ID, offset time.Duration) time.Duration {
	syncRegion := e.resolveRegion(inv, pos)
	inv.rec.Services.SNSPublishes[src]++
	e.logTransfer(inv, platform.TransferEvent{
		Kind: platform.TransferControl, From: src, To: syncRegion, ToNode: e.nodes[pos].id, Bytes: controlMessageBytes, At: e.p.Scheduler().Now().Add(offset),
	})
	inv.pending++
	latency := offset + publishCallLatency + e.p.MessageLatency(src, syncRegion, controlMessageBytes)
	if err := e.publish(id, pos, syncRegion, latency); err != nil {
		inv.pending--
		inv.rec.Succeeded = false
	}
	return offset + publishCallLatency
}

// skipEdge handles an untaken conditional edge (§4 conditional DAGs): if
// the successor is a synchronization node the edge is annotated skipped
// (possibly completing — and then firing or skipping — the node);
// otherwise the successor will never run, and the skip propagates through
// it toward every downstream synchronization node. All annotations are
// written by the current wrapper (n_i in the paper's formulation).
func (e *Engine) skipEdge(inv *invocation, id uint64, ed *edge, src region.ID, offset time.Duration) time.Duration {
	if !ed.toSync {
		return e.propagateSkipFrom(inv, id, ed.toPos, src, offset)
	}
	inv.rec.Services.KVWrites[e.home]++
	offset += e.p.KVAccessLatency(src, e.home)
	fire, anyReached := e.annotate(id, ed, false)
	switch {
	case !fire:
	case anyReached:
		offset = e.invokeSync(inv, id, ed.toPos, src, offset)
	default:
		// Every incoming edge was skipped: the sync node itself is
		// skipped and the skip propagates.
		offset = e.propagateSkipFrom(inv, id, ed.toPos, src, offset)
	}
	return offset
}

// propagateSkipFrom treats the node at pos as skipped and recursively
// skips all of its outgoing edges.
func (e *Engine) propagateSkipFrom(inv *invocation, id uint64, pos int, src region.ID, offset time.Duration) time.Duration {
	out := e.nodes[pos].out
	for i := range out {
		offset = e.skipEdge(inv, id, &out[i], src, offset)
	}
	return offset
}
