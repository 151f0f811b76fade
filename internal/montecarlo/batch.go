package montecarlo

// Batched multi-plan replay: one sweep over the tape, K candidate plans.
//
// The solver evaluates candidate plans in groups — an HBSS proposal round
// at one hour (exhaustive enumeration sweeps whole hour rows, rows.go) —
// and every plan in a group replays the *same* tape. Plan-at-a-time replay
// therefore streams the plan-independent columns (node ids, flags, payload
// bytes, baked quantile triples, edge records) K times per group.
// EstimateBatch restructures the loop: steps outermost, lanes innermost,
// so each column load is fetched once per sweep and reused K ways, while
// each lane keeps its own scratch vectors and accumulator. A lane's
// additions, comparisons, and their order are exactly replaySoA's — the
// lanes are data-independent, so interleaving their instruction streams
// changes no result bit (the same argument as replaySoAPair, generalized
// from 2 fixed samples to K plans of one sample).
//
// On top of the shared sweep sits exact pruning. The solver knows, per
// candidate, a metric threshold above which the candidate cannot be
// chosen (hbss.go: the inverted acceptWorse cutoff). At every batch
// boundary — after the convergence check, which must see exactly the
// states the reference path sees — a lane that has not converged is
// abandoned once the bound columns (bounds.go) prove its final mean metric
// exceeds its threshold for every sample count it could still stop at.
// Abandoned lanes return a nil Estimate; survivors finish the full
// stopping rule, so every field of every returned Estimate is
// bit-identical to the plan-at-a-time path. Pruning is gated on the hour's
// bounds ok latch and each lane's threshold being finite; disabling it
// (Config.NoBatchEval routes around this file entirely) changes cost,
// never results.
//
// Lane scratch (start/ready vectors) is carved from a single arena per
// batch; accumulators come from the snapshot's pool. Both live only for
// the duration of one EstimateBatch call — lanes never escape, and the
// returned Estimates are plain values.

import (
	"math"

	"caribou/internal/carbon"
)

// BatchMetric selects which metric mean a batch's prune thresholds bound.
// It mirrors the solver's optimization priority.
type BatchMetric int

const (
	BatchCarbonMean BatchMetric = iota
	BatchCostMean
	BatchLatencyMean
)

// BatchPrune carries per-candidate abandonment thresholds: candidate i
// may be abandoned once its final Metric mean provably exceeds
// Threshold[i]. A nil BatchPrune (or +Inf entries) disables pruning for
// the call (or candidate); thresholds must already include whatever
// slack the caller needs for the bound's prefix-sum reassociation error
// (see bounds.go).
type BatchPrune struct {
	Metric    BatchMetric
	Threshold []float64
}

func (p *BatchPrune) threshold(i int) float64 {
	if p == nil || i >= len(p.Threshold) {
		return math.Inf(1)
	}
	return p.Threshold[i]
}

func pruneMetric(p *BatchPrune) BatchMetric {
	if p == nil {
		return BatchCarbonMean
	}
	return p.Metric
}

// batchLane is one candidate plan's state through a shared sweep: its
// scratch vectors (carved from the batch arena), running sample, pooled
// accumulator, prune threshold, and — once finished — its estimate.
type batchLane struct {
	assign []int
	out    int // index into the caller's assigns/results
	thr    float64
	acc    *seriesAcc
	smp    sample
	start  []float64
	ready  []float64
	est    *Estimate
	pruned bool
}

// newBatchLanes builds one lane per candidate, all scratch vectors carved
// from a single arena allocation.
func (s *Snapshot) newBatchLanes(assigns [][]int, prune *BatchPrune) []*batchLane {
	n := s.nodes.Len()
	arena := make([]float64, 2*len(assigns)*n)
	ls := make([]batchLane, len(assigns))
	lanes := make([]*batchLane, len(assigns))
	for i, a := range assigns {
		ln := &ls[i]
		ln.assign = a
		ln.out = i
		ln.thr = prune.threshold(i)
		ln.acc = s.getAcc()
		ln.start, arena = arena[:n:n], arena[n:]
		ln.ready, arena = arena[:n:n], arena[n:]
		lanes[i] = ln
	}
	return lanes
}

func (s *Snapshot) releaseLanes(lanes []*batchLane) {
	for _, ln := range lanes {
		s.putAcc(ln.acc)
		ln.acc = nil
	}
}

// EstimateBatch evaluates all candidate plans at hour h through shared
// sweeps over the tape. Results align with assigns; an entry is
// nil exactly when pruning proved that candidate's Metric mean exceeds
// its threshold, and otherwise bit-identical to Estimate(assigns[i], h).
// Snapshots without SoA tapes (or with deferred exec errors) fall back
// to sequential evaluation with pruning disabled.
func (s *Snapshot) EstimateBatch(assigns [][]int, h int, prune *BatchPrune) ([]*Estimate, error) {
	for _, a := range assigns {
		if err := s.checkArgs(a, h); err != nil {
			return nil, err
		}
	}
	out := make([]*Estimate, len(assigns))
	if len(assigns) == 0 {
		return out, nil
	}
	if s.tapes == nil || !s.soaTapes || s.anyExecErr {
		for i, a := range assigns {
			est, err := s.Estimate(a, h)
			if err != nil {
				return nil, err
			}
			out[i] = est
		}
		return out, nil
	}
	if len(assigns) == 1 {
		est, err := s.estimateTaped(assigns[0], h)
		if err != nil {
			return nil, err
		}
		out[0] = est
		return out, nil
	}
	lanes := s.newBatchLanes(assigns, prune)
	defer s.releaseLanes(lanes)
	if err := s.batchSweepFull(s.tapes[h], lanes, h, pruneMetric(prune)); err != nil {
		return nil, err
	}
	for _, ln := range lanes {
		out[ln.out] = ln.est
	}
	return out, nil
}

// batchSweepFull runs the batched stopping rule from sample 0: per batch,
// replay BatchSize samples across all live lanes, then settle each lane at
// the boundary (converged/exhausted → summarize, bound-beaten → prune).
func (s *Snapshot) batchSweepFull(t *hourTape, lanes []*batchLane, h int, metric BatchMetric) error {
	s.tel.batchSweeps.Inc()
	s.tel.batchPlans.Add(int64(len(lanes)))
	// Boundary filtering compacts in place, so work on a copy and leave
	// the caller's slice (its result index) untouched.
	active := append([]*batchLane(nil), lanes...)
	n := 0
	for n < MaxSamples && len(active) > 0 {
		td := t.ensure(s, h, n+BatchSize)
		for i := n; i < n+BatchSize; i++ {
			s.batchInitSample(td, i, h, active)
			s.batchRunSteps(td, td.stepOff[i], td.stepOff[i+1], h, active)
			for _, ln := range active {
				ln.acc.add(ln.smp)
			}
		}
		n += BatchSize
		var err error
		if active, err = s.batchBoundary(td, active, n, metric); err != nil {
			return err
		}
	}
	return nil
}

// batchInitSample resets every lane's scratch and replays recorded sample
// i's entry block for each lane, mirroring replaySoA's prologue exactly.
func (s *Snapshot) batchInitSample(td *tapeData, i, h int, lanes []*batchLane) {
	home := s.home
	nR := s.nR
	rf := s.txRF[h]
	txBase, txPerByte := s.txBase, s.txPerByte
	egress := s.egressPerGB
	entry := s.start
	entryBytes := td.entry[i]
	q := td.soa.entry9[i]
	eb := entryBytes
	if eb < 0 {
		eb = 0
	}
	kvHome := s.kvAccess[home]
	msgOverhead := s.msgOverhead
	snsHome := s.snsUSD[home]
	dynRead := s.dynReadUSD
	for _, ln := range lanes {
		st, rd := ln.start, ln.ready
		for k := range st {
			st[k] = 0
			rd[k] = 0
		}
		var smp sample
		he := home*nR + ln.assign[entry]
		smp.cost += dynRead
		smp.cost += snsHome
		if entryBytes > 0 {
			smp.txCarbon += rf[he] * q
			smp.cost += q * egress[he]
		}
		st[entry] = kvHome + msgOverhead + (txBase[he] + eb*txPerByte[he])
		ln.smp = smp
	}
}

// batchRunSteps replays the step span [lo, hi) for every lane: steps
// outermost so each plan-independent column load is shared, lanes
// innermost with each lane executing the exact runSoASteps body against
// its own scratch and accumulators. Callers must guarantee no exec
// errors exist (s.anyExecErr false) — like the pair replayers, the batch
// body omits the per-step error check.
func (s *Snapshot) batchRunSteps(td *tapeData, lo, hi int32, h int, lanes []*batchLane) {
	c := td.soa
	home := s.home
	nR := s.nR
	inten := s.intensity[h]
	rf := s.txRF[h]
	txBase, txPerByte := s.txBase, s.txPerByte
	egress := s.egressPerGB
	msgOverhead := s.msgOverhead
	snsHome := s.snsUSD[home]
	kvAccess := s.kvAccess
	dynRead, dynWrite := s.dynReadUSD, s.dynWriteUSD
	snsUSD := s.snsUSD
	nodeC, flagsC, stagedC, outC, drcC, aux9C, out9C := c.node, c.flags, c.staged, c.out, c.drc, c.aux9, c.out9
	edgeOffC, toC, kindC, bytesC, skipOffC, e9C := c.edgeOff, c.to, c.kind, c.bytes, c.skipOff, c.e9
	skipS := td.skipSyncs

	for si := lo; si < hi; si++ {
		n := int(nodeC[si])
		flags := flagsC[si]
		staged := stagedC[si]
		aux9v := aux9C[si]
		drcRow := drcC[int(si)*nR*3 : (int(si)+1)*nR*3]
		isSync := flags&stepSync != 0
		isOut := flags&stepOutput != 0
		var outV, out9v float64
		var eLo, eHi int32
		if isOut {
			outV = outC[si]
			out9v = out9C[si]
		} else {
			eLo, eHi = edgeOffC[si], edgeOffC[si+1]
		}
		for _, ln := range lanes {
			smp := ln.smp
			r := ln.assign[n]
			var startN float64
			if isSync {
				hr := home*nR + r
				smp.cost += snsHome
				smp.txCarbon += rf[hr] * (controlBytes / 1e9)
				smp.cost += controlBytes / 1e9 * egress[hr]
				arrive := ln.ready[n] + msgOverhead + (txBase[hr] + controlBytes*txPerByte[hr])
				ld := staged
				if ld < 0 {
					ld = 0
				}
				load := kvAccess[r] + (txBase[hr] + ld*txPerByte[hr])
				smp.cost += dynRead
				if staged > 0 {
					smp.txCarbon += rf[hr] * aux9v
					smp.cost += aux9v * egress[hr]
				}
				startN = arrive + load
			} else {
				startN = ln.start[n]
			}
			base := r * 3
			finish := startN + drcRow[base]
			if finish > smp.latency {
				smp.latency = finish
			}
			smp.execCarbon += inten[r] * drcRow[base+1] * carbon.PUE
			smp.cost += drcRow[base+2]
			if isOut {
				if outV > 0 {
					rh := r*nR + home
					smp.txCarbon += rf[rh] * out9v
					smp.cost += out9v * egress[rh]
				}
			} else {
				for ei := eLo; ei < eHi; ei++ {
					to := int(toC[ei])
					switch kindC[ei] {
					case tapeEdgeSkip:
						for k := skipOffC[ei]; k < skipOffC[ei+1]; k++ {
							sn := int(skipS[k])
							if finish > ln.ready[sn] {
								ln.ready[sn] = finish
							}
						}
						smp.cost += dynWrite // skip annotation
					case tapeEdgeStage:
						b := bytesC[ei]
						rh := r*nR + home
						smp.cost += dynWrite
						smp.cost += dynWrite
						tb := b
						if tb < 0 {
							tb = 0
						}
						if b > 0 {
							q := e9C[ei]
							smp.txCarbon += rf[rh] * q
							smp.cost += q * egress[rh]
						}
						ready := finish + (txBase[rh] + tb*txPerByte[rh]) + kvAccess[r]
						if ready > ln.ready[to] {
							ln.ready[to] = ready
						}
					case tapeEdgeDirect:
						smp.cost += snsUSD[r]
						total := bytesC[ei] + controlBytes
						rt := r*nR + ln.assign[to]
						if total > 0 {
							q := e9C[ei]
							smp.txCarbon += rf[rt] * q
							smp.cost += q * egress[rt]
						}
						tb := total
						if tb < 0 {
							tb = 0
						}
						arrive := finish + msgOverhead + (txBase[rt] + tb*txPerByte[rt])
						if arrive > ln.start[to] {
							ln.start[to] = arrive
						}
					}
				}
			}
			ln.smp = smp
		}
	}
}

// batchBoundary settles every live lane at sample count n: lanes that
// converged (the check runs for every lane at every boundary, exactly as
// the reference loop calls it) or exhausted the tape are summarized;
// unconverged lanes whose bound proves their final mean must exceed
// their threshold are abandoned; the rest stay live. Returns the
// compacted live set (filtering active in place — callers pass a copy).
func (s *Snapshot) batchBoundary(td *tapeData, active []*batchLane, n int, metric BatchMetric) ([]*batchLane, error) {
	live := active[:0]
	b := td.bnd
	for _, ln := range active {
		if ln.acc.converged() || n >= MaxSamples {
			est, err := ln.acc.summarize()
			if err != nil {
				return nil, err
			}
			ln.est = est
			s.tel.estimates.Inc()
			s.tel.samples.Add(int64(n))
			s.tel.tapeReplays.Add(int64(n))
			continue
		}
		if b != nil && b.ok && !math.IsInf(ln.thr, 1) && batchLowerBound(b, ln, n, td.n, metric) > ln.thr {
			ln.pruned = true
			s.tel.prunedCandidates.Inc()
			continue
		}
		live = append(live, ln)
	}
	return live, nil
}

// batchLowerBound returns a lower bound on the lane's final mean of the
// pruning metric over every sample count the stopping rule could still
// halt at. The lane's partial sum is re-accumulated left-to-right — the
// exact float prefix of the summation stats.Mean would perform.
func batchLowerBound(c *hourBounds, ln *batchLane, n, compiled int, metric BatchMetric) float64 {
	var series, pre []float64
	switch metric {
	case BatchCostMean:
		series, pre = ln.acc.cost, c.preCost
	case BatchLatencyMean:
		series, pre = ln.acc.lat, c.preLat
	default:
		series, pre = ln.acc.carb, c.preCarb
	}
	var partial float64
	for _, v := range series {
		partial += v
	}
	return lowerBound(partial, pre, n, compiled)
}

// lowerBound floors the final mean of a metric whose first n samples sum
// to partial: the remaining samples contribute their prefix-sum floors
// (bounds.go) out to the look-ahead horizon; samples past it contribute an
// implicit 0, valid because the floors are non-negative whenever the hour's
// ok latch holds.
func lowerBound(partial float64, pre []float64, n, horizon int) float64 {
	low := math.Inf(1)
	for nf := n + BatchSize; nf <= MaxSamples; nf += BatchSize {
		known := nf
		if known > horizon {
			known = horizon
		}
		b := (partial + (pre[known] - pre[n])) / float64(nf)
		if b < low {
			low = b
		}
	}
	return low
}

// EstimateBatchDelta is EstimateBatch composed with delta anchors: lanes
// whose dirty cone against the cached anchor opens at the same firstUse
// boundary share one checkpoint restore per sample and sweep the dirty
// suffix together. Per-lane semantics match EstimateDelta exactly — the
// trivial no-diff shortcut, the fallback conditions (each counted), and
// the anchor lifecycle are evaluated lane by lane — with nil results for
// pruned lanes, as in EstimateBatch.
func (s *Snapshot) EstimateBatchDelta(base *Estimate, baseAssign []int, assigns [][]int, h int, prune *BatchPrune) ([]*Estimate, error) {
	for _, a := range assigns {
		if err := s.checkArgs(a, h); err != nil {
			return nil, err
		}
	}
	out := make([]*Estimate, len(assigns))
	if len(assigns) == 0 {
		return out, nil
	}
	if s.tapes == nil || !s.soaTapes || s.anyExecErr {
		for i, a := range assigns {
			est, err := s.EstimateDelta(base, baseAssign, a, h)
			if err != nil {
				return nil, err
			}
			out[i] = est
		}
		return out, nil
	}
	if err := s.checkArgs(baseAssign, h); err != nil {
		return nil, err
	}
	if s.nodes.Len() > deltaMaxNodes || len(s.fuBounds) == 0 {
		s.tel.deltaFallbacks.Add(int64(len(assigns)))
		return s.EstimateBatch(assigns, h, prune)
	}
	lanes := s.newBatchLanes(assigns, prune)
	defer s.releaseLanes(lanes)
	metric := pruneMetric(prune)
	t := s.tapes[h]

	// Partition lanes by how they evaluate. Trivial no-diff lanes take the
	// incumbent's estimate; lanes that cannot resume (entry-node cone,
	// anchor unavailable) replay in full together; the rest group by their
	// resume boundary so each group shares one checkpoint restore.
	pending := make([]*batchLane, 0, len(lanes))
	full := make([]*batchLane, 0, len(lanes))
	for _, ln := range lanes {
		fInc := coneBoundary(s.firstUse, baseAssign, ln.assign)
		switch {
		case fInc == math.MaxInt32 && base != nil:
			ln.est = base
		case fInc < 1:
			s.tel.deltaFallbacks.Inc()
			full = append(full, ln)
		default:
			pending = append(pending, ln)
		}
	}

	min := reanchorBoundary(s.nodes.Len())
	an := t.anchor.Load()
	if len(pending) > 0 && (an == nil || coneBoundary(s.firstUse, an.assign, baseAssign) < min) {
		// No usable anchor. As in EstimateDelta, the first anchor-eligible
		// lane (cone vs the incumbent ≥ 1, so an anchor at its plan stays
		// fresh) records its own full replay as the new anchor; TryLock
		// keeps concurrent workers moving — losers replay their whole
		// group in full.
		if t.anchorMu.TryLock() {
			a2 := t.anchor.Load()
			if a2 == nil || coneBoundary(s.firstUse, a2.assign, baseAssign) < min {
				est, a, err := s.estimateRecordingAnchor(t, h, pending[0].assign)
				if err != nil {
					t.anchorMu.Unlock()
					return nil, err
				}
				t.anchor.Store(a)
				t.anchorMu.Unlock()
				pending[0].est = est
				pending = pending[1:]
				an = a
			} else {
				t.anchorMu.Unlock()
				an = a2
			}
		} else {
			s.tel.deltaFallbacks.Add(int64(len(pending)))
			full = append(full, pending...)
			pending = nil
		}
	}

	// groups is indexed by resume-boundary position in fuBounds, so group
	// execution order is deterministic regardless of lane order or anchor
	// races.
	groups := make([][]*batchLane, len(s.fuBounds))
	for _, ln := range pending {
		f := coneBoundary(s.firstUse, an.assign, ln.assign)
		switch {
		case f < 1:
			s.tel.deltaFallbacks.Inc()
			full = append(full, ln)
		case f == math.MaxInt32:
			// The lane is the anchor plan itself; a full replay is cheaper
			// than resuming every sample at its last boundary.
			full = append(full, ln)
		default:
			b := 0
			for an.bounds[b] != f {
				b++
			}
			groups[b] = append(groups[b], ln)
		}
	}

	if len(full) == 1 {
		est, err := s.estimateTaped(full[0].assign, h)
		if err != nil {
			return nil, err
		}
		full[0].est = est
	} else if len(full) > 1 {
		if err := s.batchSweepFull(t, full, h, metric); err != nil {
			return nil, err
		}
	}
	for b, g := range groups {
		switch {
		case len(g) == 0:
		case len(g) == 1:
			est, err := s.estimateFromAnchor(an, g[0].assign, h, an.bounds[b], b)
			if err != nil {
				return nil, err
			}
			g[0].est = est
		default:
			if err := s.batchSweepResume(t, an, g, h, an.bounds[b], b, metric); err != nil {
				return nil, err
			}
		}
	}
	for _, ln := range lanes {
		out[ln.out] = ln.est
	}
	return out, nil
}

// batchSweepResume is batchSweepFull with per-sample anchor resume: all
// lanes in the group share the boundary, so checkpointed samples restore
// one recorded cone block (per lane) and sweep only the dirty suffix;
// samples the anchor never checkpointed replay in full.
func (s *Snapshot) batchSweepResume(t *hourTape, an *deltaAnchor, lanes []*batchLane, h int, f int32, b int, metric BatchMetric) error {
	s.tel.batchSweeps.Inc()
	s.tel.batchPlans.Add(int64(len(lanes)))
	active := append([]*batchLane(nil), lanes...)
	nB := len(an.bounds)
	resumed := 0
	n := 0
	for n < MaxSamples && len(active) > 0 {
		td := t.ensure(s, h, n+BatchSize)
		for i := n; i < n+BatchSize; i++ {
			if i < an.n {
				resumed += len(active)
				j := an.jump[i*nB+b]
				if j < 0 {
					// No step reads a changed assignment: the anchor's
					// result holds for every lane in the group.
					o := i * 4
					smp := sample{
						latency:    an.final[o],
						cost:       an.final[o+1],
						execCarbon: an.final[o+2],
						txCarbon:   an.final[o+3],
					}
					for _, ln := range active {
						ln.acc.add(smp)
					}
					continue
				}
				o := (i*nB + b) * 4
				smp := sample{
					latency:    an.acc[o],
					cost:       an.acc[o+1],
					execCarbon: an.acc[o+2],
					txCarbon:   an.acc[o+3],
				}
				nN := an.nNodes
				off0 := int(an.base[b]) + i*int(an.stride[b])
				for _, ln := range active {
					off := off0
					for v := int(f); v < nN; v++ {
						ln.start[v] = an.start[off]
						ln.ready[v] = an.ready[off]
						off++
					}
					ln.smp = smp
				}
				s.batchRunSteps(td, j, td.stepOff[i+1], h, active)
			} else {
				s.batchInitSample(td, i, h, active)
				s.batchRunSteps(td, td.stepOff[i], td.stepOff[i+1], h, active)
			}
			for _, ln := range active {
				ln.acc.add(ln.smp)
			}
		}
		n += BatchSize
		var err error
		if active, err = s.batchBoundary(td, active, n, metric); err != nil {
			return err
		}
	}
	s.tel.deltaResumed.Add(int64(resumed))
	return nil
}
