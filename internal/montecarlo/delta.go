package montecarlo

// Delta replay: incremental plan evaluation against a cached anchor.
//
// HBSS neighbors differ from the incumbent in a handful of nodes, yet
// full replay re-walks every step of every sample. Float addition is
// order-sensitive, so a bit-identical incremental evaluation cannot
// subtract the old contribution and add the new one — instead it must
// reuse an untouched *prefix* of the exact reference computation and
// recompute the suffix in the original order.
//
// Steps are recorded in ascending node order, and the assignment of node
// k is first read at the step of node firstUse[k] = min(k, smallest
// direct-edge predecessor of k): only direct pub/sub edges read their
// target's region (staging and skip edges route through home), and a
// node's own step reads its region on execution. For a plan differing
// from the anchor plan at nodes K, every step before the dirty-cone
// boundary f = min over k∈K of firstUse[k] is therefore bit-identical to
// the anchor's replay, and every step at or after it is recomputed
// verbatim.
//
// The only boundaries a resume can ever start at are the distinct
// firstUse values ≥ 1 (Snapshot.fuBounds) — at most one per node, and
// far fewer in practice. An anchor therefore checkpoints, during one
// full replay of its plan, the accumulators and scratch vectors at
// exactly those crossing points of each sample (not at every step), plus
// each sample's final metrics. Resuming a neighbor is a direct lookup:
// jump to the sample's recorded crossing step for the cone's boundary,
// restore that checkpoint, and run the remaining steps through the same
// runSoASteps loop full replay uses. Samples that never cross the
// boundary return the anchor's final metrics untouched.
//
// One anchor is cached per hour and deliberately kept while the search's
// incumbent drifts away from it — resume boundaries shrink as the drift
// grows, but every resumed estimate still amortizes the recorded replay.
// The anchor is declared stale when the incumbent's own cone against it
// starts before reanchorBoundary, the point at which resumes save almost
// nothing. A replacement is never built by a dedicated replay: the next
// eligible request (whose cone vs the incumbent is ≥ 1, so an anchor at
// its plan stays fresh) records its own full-replay estimate as the new
// anchor, making the build cost recording overhead only.
//
// Fallbacks (counted by montecarlo.delta_fallbacks): plans whose cone
// covers the whole tape (f < 1 — e.g. any diff at the entry node), DAGs
// above deltaMaxNodes (checkpoint memory grows with nodes·boundaries·
// samples), and non-SoA or untaped snapshots.

import "math"

// deltaMaxNodes bounds the DAG size for which anchors are recorded: one
// checkpoint holds 2·nodes floats and a sample has up to one checkpoint
// per distinct boundary, so anchor memory grows quadratically with the
// node count.
const deltaMaxNodes = 64

// deltaAnchorSamples caps how many samples an anchor checkpoints. Most
// plans converge within the first batch; neighbors that need more
// samples replay the excess in full.
const deltaAnchorSamples = BatchSize

// reanchorBoundary is the minimum usable resume boundary: once the
// incumbent's dirty cone against the cached anchor starts before node
// max(1, nodes/4), neighbor resumes reuse almost no prefix and the
// anchor is rebuilt at the incumbent.
func reanchorBoundary(nodes int) int32 {
	b := int32(nodes / 4)
	if b < 1 {
		b = 1
	}
	return b
}

// coneBoundary returns the dirty-cone boundary of evaluating assign
// against an anchor at base: the smallest firstUse over differing nodes,
// or math.MaxInt32 when the plans are identical.
func coneBoundary(firstUse []int32, base, assign []int) int32 {
	f := int32(math.MaxInt32)
	for i := range assign {
		if assign[i] != base[i] && firstUse[i] < f {
			f = firstUse[i]
		}
	}
	return f
}

// deltaAnchor caches boundary checkpoints of one full replay of its plan
// at one hour. Checkpoint slot k = i*len(bounds)+b holds the state in
// force just before sample i's first step with node ≥ bounds[b] (jump[k]
// is that step's absolute tape index, -1 when the sample never crosses);
// final holds each checkpointed sample's end metrics.
type deltaAnchor struct {
	assign []int // anchor plan
	nNodes int
	bounds []int32 // Snapshot.fuBounds at build time
	n      int     // samples checkpointed (≤ deltaAnchorSamples)
	jump   []int32
	// start and ready hold, per checkpoint, only the cone slots
	// [bounds[b], nNodes) that resuming at boundary b restores — steps past
	// the boundary never read earlier nodes' state. Boundary b's block for
	// sample i lives at base[b]+i*stride[b], stride[b] = nNodes-bounds[b];
	// the compact layout keeps anchor allocation (and its zeroing, which
	// showed up as a top GC cost at hundreds of anchors per solve) at the
	// few slots actually used instead of nNodes per checkpoint.
	start  []float64
	ready  []float64
	stride []int32
	base   []int32
	acc    []float64 // [k*4+j]: latency, cost, execCarbon, txCarbon at checkpoint k=i*len(bounds)+b
	final  []float64 // [i*4+j]: sample i's final metrics

	// Build cursor, valid only during estimateRecordingAnchor (single
	// goroutine under the hour's anchorMu).
	cur  int // next boundary index awaiting its crossing in this sample
	slot int // base checkpoint slot of the sample being recorded
	smpl int // sample index being recorded
}

// record is called by runSoASteps before step si (node v) executes, and
// captures a checkpoint for every boundary this step crosses. Only the
// cone slots [bound, nNodes) are copied: resumeSample restores exactly
// that range (steps past the boundary never read state of earlier nodes),
// so the slots below it would be dead weight.
func (a *deltaAnchor) record(si, v int32, sc *replayScratch, smp *sample) {
	for a.cur < len(a.bounds) && a.bounds[a.cur] <= v {
		b := a.cur
		k := a.slot + b
		a.jump[k] = si
		f := int(a.bounds[b])
		off := int(a.base[b]) + a.smpl*int(a.stride[b])
		// Open-coded: cone blocks are a handful of slots, below the size
		// where a copy call pays for itself.
		for v := f; v < a.nNodes; v++ {
			a.start[off] = sc.start[v]
			a.ready[off] = sc.ready[v]
			off++
		}
		o := k * 4
		a.acc[o] = smp.latency
		a.acc[o+1] = smp.cost
		a.acc[o+2] = smp.execCarbon
		a.acc[o+3] = smp.txCarbon
		a.cur++
	}
}

// EstimateDelta evaluates assign at hour h incrementally, given that the
// search's incumbent plan baseAssign has estimate base (base may be nil;
// it only serves the trivial no-diff shortcut). Results are bit-identical
// to Estimate(assign, h) in every case — delta replay is a prefix-reuse
// of the exact reference arithmetic, and every condition it cannot honor
// falls back to full replay.
func (s *Snapshot) EstimateDelta(base *Estimate, baseAssign, assign []int, h int) (*Estimate, error) {
	if err := s.checkArgs(assign, h); err != nil {
		return nil, err
	}
	if s.tapes == nil || !s.soaTapes {
		s.tel.deltaFallbacks.Inc()
		return s.Estimate(assign, h)
	}
	if err := s.checkArgs(baseAssign, h); err != nil {
		return nil, err
	}
	if s.nodes.Len() > deltaMaxNodes || len(s.fuBounds) == 0 {
		s.tel.deltaFallbacks.Inc()
		return s.estimateTaped(assign, h)
	}
	fInc := coneBoundary(s.firstUse, baseAssign, assign)
	if fInc == math.MaxInt32 && base != nil {
		return base, nil
	}
	// Anchors track the incumbent (up to reanchorBoundary drift), so a
	// plan whose cone against the incumbent opens at the tape start
	// cannot resume from any anchor this call could produce: the
	// incumbent and the anchor agree on every node below the rebuild
	// threshold. Skip the anchor machinery entirely.
	if fInc < 1 {
		s.tel.deltaFallbacks.Inc()
		return s.estimateTaped(assign, h)
	}
	t := s.tapes[h]
	min := reanchorBoundary(s.nodes.Len())
	an := t.anchor.Load()
	if an == nil || coneBoundary(s.firstUse, an.assign, baseAssign) < min {
		// No usable anchor. This request must replay in full either way
		// (nothing to resume from), so record its own replay as the new
		// anchor: assign's cone against the incumbent is ≥ 1 (checked
		// above), hence an anchor at assign stays fresh for the episode
		// and the build costs only recording overhead instead of a
		// dedicated extra replay of the incumbent. TryLock keeps
		// concurrent workers moving — losers replay plain; which worker
		// records cannot change any estimate (resume is exact).
		if t.anchorMu.TryLock() {
			a2 := t.anchor.Load()
			if a2 == nil || coneBoundary(s.firstUse, a2.assign, baseAssign) < min {
				est, a, err := s.estimateRecordingAnchor(t, h, assign)
				if err == nil {
					t.anchor.Store(a)
				}
				t.anchorMu.Unlock()
				return est, err
			}
			t.anchorMu.Unlock()
			an = a2
		} else {
			s.tel.deltaFallbacks.Inc()
			return s.estimateTaped(assign, h)
		}
	}
	f := coneBoundary(s.firstUse, an.assign, assign)
	if f < 1 {
		s.tel.deltaFallbacks.Inc()
		return s.estimateTaped(assign, h)
	}
	if f == math.MaxInt32 {
		// assign is the anchor plan itself (possible when the incumbent
		// drifted back onto it); a full replay is cheaper than resuming
		// every sample at its last boundary.
		return s.estimateTaped(assign, h)
	}
	// f is the minimum of firstUse values ≥ 1, so it is one of fuBounds.
	b := 0
	for an.bounds[b] != f {
		b++
	}
	return s.estimateFromAnchor(an, assign, h, f, b)
}

// estimateRecordingAnchor evaluates plan at hour h in full — exactly the
// arithmetic of estimateTaped, so the returned estimate is bit-identical —
// while recording boundary checkpoints of its first deltaAnchorSamples
// samples into a fresh anchor. Anchors are built this way, piggybacked on
// a request that had to replay in full anyway, so a build costs only the
// recording overhead (the checkpointed leg forgoes pair interleaving; its
// per-sample values are unchanged) instead of a dedicated replay of the
// incumbent. Neighbors that converge slower than the anchor's horizon
// replay their excess samples in full (estimateFromAnchor).
func (s *Snapshot) estimateRecordingAnchor(t *hourTape, h int, plan []int) (*Estimate, *deltaAnchor, error) {
	sc, sc2 := s.getScratch(), s.getScratch() // sc2: the pair replayers' second sample
	defer s.putScratch(sc)
	defer s.putScratch(sc2)
	acc := s.getAcc()
	defer s.putAcc(acc)
	nNodes := s.nodes.Len()
	nB := len(s.fuBounds)
	ck := deltaAnchorSamples
	if ck > MaxSamples {
		ck = MaxSamples
	}
	td := t.ensure(s, h, ck)
	if td.n < ck {
		ck = td.n
	}
	an := &deltaAnchor{
		assign: append([]int(nil), plan...),
		nNodes: nNodes,
		bounds: s.fuBounds,
		jump:   make([]int32, ck*nB),
		stride: make([]int32, nB),
		base:   make([]int32, nB),
		acc:    make([]float64, ck*nB*4),
		final:  make([]float64, ck*4),
	}
	slots := 0
	for b, f := range s.fuBounds {
		an.stride[b] = int32(nNodes) - f
		an.base[b] = int32(slots)
		slots += ck * int(an.stride[b])
	}
	an.start = make([]float64, slots)
	an.ready = make([]float64, slots)
	for i := range an.jump {
		an.jump[i] = -1
	}
	for acc.samples() < MaxSamples {
		need := acc.samples() + BatchSize
		td = t.ensure(s, h, need)
		i := acc.samples()
		for ; i < need && i < ck; i++ {
			an.cur = 0
			an.slot = i * nB
			an.smpl = i
			smp, err := s.replaySoA(td, i, h, an.assign, sc, an)
			if err != nil {
				return nil, nil, err
			}
			o := i * 4
			an.final[o] = smp.latency
			an.final[o+1] = smp.cost
			an.final[o+2] = smp.execCarbon
			an.final[o+3] = smp.txCarbon
			an.n = i + 1
			acc.add(smp)
		}
		if !s.anyExecErr {
			for ; i+1 < need; i += 2 {
				a, b, err := s.replaySoAPair(td, i, h, an.assign, sc, sc2)
				if err != nil {
					return nil, nil, err
				}
				acc.add(a)
				acc.add(b)
			}
		}
		for ; i < need; i++ {
			smp, err := s.replaySoA(td, i, h, an.assign, sc, nil)
			if err != nil {
				return nil, nil, err
			}
			acc.add(smp)
		}
		if acc.converged() {
			break
		}
	}
	s.tel.estimates.Inc()
	s.tel.samples.Add(int64(acc.samples()))
	s.tel.tapeReplays.Add(int64(acc.samples()))
	s.tel.deltaAnchors.Inc()
	est, err := acc.summarize()
	return est, an, err
}

// estimateFromAnchor runs the stopping-rule loop with per-sample resume:
// checkpointed samples restart at dirty-cone boundary f (= bounds[b]),
// later samples replay in full.
func (s *Snapshot) estimateFromAnchor(an *deltaAnchor, assign []int, h int, f int32, b int) (*Estimate, error) {
	t := s.tapes[h]
	sc, sc2 := s.getScratch(), s.getScratch() // sc2: the pair replayers' second sample
	defer s.putScratch(sc)
	defer s.putScratch(sc2)
	acc := s.getAcc()
	defer s.putAcc(acc)
	resumed := 0
	for acc.samples() < MaxSamples {
		need := acc.samples() + BatchSize
		td := t.ensure(s, h, need)
		i := acc.samples()
		if !s.anyExecErr {
			// Resume and replay pairwise (same interleaving rationale as
			// estimateTaped's pair loop; bit-identical per sample).
			for ; i+1 < need && i+1 < an.n; i += 2 {
				a, bs, err := s.resumeSamplePair(td, an, i, h, assign, sc, sc2, f, b)
				if err != nil {
					return nil, err
				}
				acc.add(a)
				acc.add(bs)
				resumed += 2
			}
			for ; i+1 < need && i >= an.n; i += 2 {
				a, bs, err := s.replaySoAPair(td, i, h, assign, sc, sc2)
				if err != nil {
					return nil, err
				}
				acc.add(a)
				acc.add(bs)
			}
		}
		for ; i < need; i++ {
			var smp sample
			var err error
			if i < an.n {
				smp, err = s.resumeSample(td, an, i, h, assign, sc, f, b)
				resumed++
			} else {
				smp, err = s.replaySoA(td, i, h, assign, sc, nil)
			}
			if err != nil {
				return nil, err
			}
			acc.add(smp)
		}
		if acc.converged() {
			break
		}
	}
	s.tel.estimates.Inc()
	s.tel.samples.Add(int64(acc.samples()))
	s.tel.tapeReplays.Add(int64(acc.samples()))
	s.tel.deltaResumed.Add(int64(resumed))
	return acc.summarize()
}

// resumeSample evaluates checkpointed sample i under a plan whose
// differences from the anchor are all first read at or after node
// boundary f = an.bounds[b] ≥ 1.
func (s *Snapshot) resumeSample(td *tapeData, an *deltaAnchor, i, h int, assign []int, sc *replayScratch, f int32, b int) (sample, error) {
	k := i*len(an.bounds) + b
	j := an.jump[k]
	if j < 0 {
		// No step reads a changed assignment: the anchor's result holds.
		o := i * 4
		return sample{
			latency:    an.final[o],
			cost:       an.final[o+1],
			execCarbon: an.final[o+2],
			txCarbon:   an.final[o+3],
		}, nil
	}
	// Steps ≥ j only read and write state of nodes ≥ f (their own node
	// and forward edge/skip targets), so restoring the cone suffices —
	// slots below f keep whatever the previous sample left, unread.
	n := an.nNodes
	off := int(an.base[b]) + i*int(an.stride[b])
	for v := int(f); v < n; v++ {
		sc.start[v] = an.start[off]
		sc.ready[v] = an.ready[off]
		off++
	}
	o := k * 4
	smp := sample{
		latency:    an.acc[o],
		cost:       an.acc[o+1],
		execCarbon: an.acc[o+2],
		txCarbon:   an.acc[o+3],
	}
	return s.runSoASteps(td, j, td.stepOff[i+1], h, assign, sc, smp, nil)
}

// resumeSamplePair resumes checkpointed samples i and i+1 together so the
// two suffix replays interleave through runSoAStepsPair (the samples are
// data-independent; each one's instruction order is unchanged, so results
// are bit-identical to two resumeSample calls).
func (s *Snapshot) resumeSamplePair(td *tapeData, an *deltaAnchor, i, h int, assign []int, scA, scB *replayScratch, f int32, b int) (sample, sample, error) {
	nB := len(an.bounds)
	jA := an.jump[i*nB+b]
	jB := an.jump[(i+1)*nB+b]
	if jA < 0 || jB < 0 {
		// At least one sample never crosses the boundary: nothing to
		// interleave, resumeSample short-circuits it to the anchor's finals.
		smpA, err := s.resumeSample(td, an, i, h, assign, scA, f, b)
		if err != nil {
			return sample{}, sample{}, err
		}
		smpB, err := s.resumeSample(td, an, i+1, h, assign, scB, f, b)
		return smpA, smpB, err
	}
	n := an.nNodes
	offA := int(an.base[b]) + i*int(an.stride[b])
	offB := offA + int(an.stride[b])
	for v := int(f); v < n; v++ {
		scA.start[v] = an.start[offA]
		scA.ready[v] = an.ready[offA]
		scB.start[v] = an.start[offB]
		scB.ready[v] = an.ready[offB]
		offA++
		offB++
	}
	oA := (i*nB + b) * 4
	smpA := sample{latency: an.acc[oA], cost: an.acc[oA+1], execCarbon: an.acc[oA+2], txCarbon: an.acc[oA+3]}
	oB := ((i+1)*nB + b) * 4
	smpB := sample{latency: an.acc[oB], cost: an.acc[oB+1], execCarbon: an.acc[oB+2], txCarbon: an.acc[oB+3]}
	return s.runSoAStepsPair(td, jA, td.stepOff[i+1], jB, td.stepOff[i+2], h, assign, scA, scB, smpA, smpB)
}

// deltaAnchorLoaded reports whether hour h currently caches an anchor
// (test hook).
func (s *Snapshot) deltaAnchorLoaded(h int) bool {
	if s.tapes == nil {
		return false
	}
	return s.tapes[h].anchor.Load() != nil
}
