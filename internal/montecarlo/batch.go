package montecarlo

// Sweeps: the batched §7.1 stopping rule over plan bases and an hour window.
//
// The solver evaluates candidate plans in groups — an HBSS proposal round
// at one hour, a chunk of an exhaustive enumeration at every hour — and
// every plan in a group replays the same tape. A sweep walks the batch
// boundaries 200, 400, …: at each it brings every live lane's basis up to
// the boundary (one shared K-lane replay for the lanes that lack the
// batch, basis.go; nothing for a basis an earlier hour already extended),
// prices the new block at each hour the lane still has open, and settles
// every open (lane, hour) there — all lanes at one boundary before any
// lane at the next, so what one lane does never reaches another's prune
// decision. The one prune rule is RowPrune's, per absolute hour:
//
//   - first boundary of a window of at least screenMinHours hours, before
//     the hour is priced: the first block's hour-free statistics (basis.go:
//     screenRow) prove the estimate stops here with a metric mean above the
//     hour's threshold → screened, a nil Estimate, never priced;
//   - the latency or cost CV fails short of MaxSamples, so no hour can stop
//     here, and the bound columns prove the hour's final mean metric
//     exceeds its threshold from the exact latency or cost sum, or from a
//     floor of the carbon sum the block would price to (basis.go:
//     carbonFloor) → abandoned before pricing, a nil Estimate;
//   - converged (the check runs at every boundary on exactly the series
//     the reference rule sees: latency and cost CVs once per basis per
//     boundary, the carbon CV per hour) or out of tape → summarized;
//   - unconverged, and the hour's bound columns (bounds.go) prove its final
//     mean metric exceeds the hour's threshold at every sample count it
//     could still stop at → abandoned, a nil Estimate;
//   - otherwise still open.
//
// Survivors finish the full stopping rule, so every field of every
// returned Estimate is bit-identical to the plan-at-a-time paths. An hour
// is summarized at its own boundary from series prefixes, so a basis is
// never permuted and stays valid for the hours that come later. Only the
// per-hour carbon series are kept per lane (exec/tx means are running
// left-to-right sums, the exact prefix of stats.Mean's summation), in
// pooled accumulators.

import (
	"fmt"
	"math"
	"slices"

	"caribou/internal/stats"
)

// BatchMetric selects which metric mean a sweep's prune thresholds bound.
// It mirrors the solver's optimization priority.
type BatchMetric int

const (
	BatchCarbonMean BatchMetric = iota
	BatchCostMean
	BatchLatencyMean
)

// hourAcc is one lane's per-hour store through a sweep: the carbon series
// of every hour of the sweep's window in per-batch blocks (batch b's
// samples of hour slot k at blocks[b][k*BatchSize:]) and the running
// carbon sums whose prefixes are the means. Blocks are appended as
// the lane outlives batches — never regrown — and stay with the
// accumulator when it returns to the pool.
type hourAcc struct {
	blocks [][]float64
	sums   []float64 // per hour slot: carbon
}

// block returns the carbon block of batch b, appending it on first use.
func (a *hourAcc) block(b int) []float64 {
	if b == len(a.blocks) {
		a.blocks = append(a.blocks, make([]float64, len(a.sums)*BatchSize))
	}
	return a.blocks[b]
}

// sqDev continues the left-to-right sum of squared deviations from mean
// over xs — stats.MeanVariance's second pass, resumable across blocks.
func sqDev(sum float64, xs []float64, mean float64) float64 {
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return sum
}

// cvOf is meanCV given the n-sample series' mean — its running
// left-to-right sum over n, exactly stats.Mean's value — and its sum of
// squared deviations.
func cvOf(sq float64, n int, mean float64) float64 {
	if mean == 0 {
		return 0
	}
	se := math.Sqrt(sq/float64(n)) / math.Sqrt(float64(n))
	return math.Abs(se / mean)
}

// carbCV is meanCV of hour slot k's first n carbon samples.
func (a *hourAcc) carbCV(k, n int, mean float64) float64 {
	var sq float64
	for b := 0; b*BatchSize < n; b++ {
		sq = sqDev(sq, a.blocks[b][k*BatchSize:(k+1)*BatchSize], mean)
	}
	return cvOf(sq, n, mean)
}

// p95 gathers the first n samples of a blocked series — column
// [off, off+BatchSize) of each block — into tmp and selects their 95th
// percentile there, leaving the blocks in sample order.
func p95(blocks [][]float64, off, n int, tmp []float64) (float64, error) {
	for b := 0; b*BatchSize < n; b++ {
		copy(tmp[b*BatchSize:], blocks[b][off:off+BatchSize])
	}
	return stats.PercentileInPlace(tmp[:n], 95)
}

// sharedP95 fills the boundary's latency and cost p95, once per basis:
// p95 selects on a copy, so later hours still read the series in order.
func (b *Basis) sharedP95(st *boundStat, n int, tmp []float64) (err error) {
	if st.haveP95 {
		return nil
	}
	if st.latP95, err = p95(b.blocks, 0, n, tmp); err != nil {
		return err
	}
	st.costP95, err = p95(b.blocks, BatchSize, n, tmp)
	st.haveP95 = err == nil
	return err
}

// lane is one plan's state through a sweep.
type lane struct {
	b    *Basis
	out  []*Estimate // results by hour slot
	open []int       // hour slots still sampling, ascending
	acc  *hourAcc
	ests []Estimate // backing store of this lane's summaries
}

// sweep is one call's shared state: the hour window [h0, h0+nh) — slot k
// is hour h0+k — the prune rule, and the evaluation slots replay is
// bounded by (nil: the caller already holds one, or the solve is serial).
type sweep struct {
	s      *Snapshot
	h0, nh int
	rows   *RowPrune
	sem    chan struct{}

	tmp           *[MaxSamples]float64 // pooled percentile scratch, taken on first use
	lanes         []lane               // one per basis, in the caller's order
	active        []*lane              // lanes with an hour still open
	held, late    []*lane              // boundary's partition of active
	fresh         []*Basis
	coef          []float64 // one hour's coefficients by slot, as wide as the widest basis
	ests, pruned  int64
	unpriced      int64 // of pruned, closed before pricing
	pricedSamples int64
	screened      int64
	// Section nanoseconds by Lap: zeros with telemetry off.
	replayNS, priceNS, screenNS int64
}

// newSweep builds one lane per basis with every hour of the window open,
// lane i's results going to out[i].
func (s *Snapshot) newSweep(bases []*Basis, out [][]*Estimate, h0, nh int, rows *RowPrune, sem chan struct{}) *sweep {
	n := len(bases)
	ptrs := make([]*lane, 3*n)
	sw := &sweep{
		s: s, h0: h0, nh: nh, rows: rows, sem: sem,
		lanes:  make([]lane, n),
		active: ptrs[:n:n],
		held:   ptrs[n : n : 2*n],
		late:   ptrs[2*n : 2*n],
	}
	w := 0
	for _, b := range bases {
		w = max(w, b.width())
	}
	sw.coef = make([]float64, w)
	open := make([]int, n*nh)
	for i, b := range bases {
		ln := &sw.lanes[i]
		ln.b, ln.out = b, out[i]
		ln.open, open = open[:nh:nh], open[nh:]
		for k := range ln.open {
			ln.open[k] = k
		}
		sw.active[i] = ln
	}
	return sw
}

// run drives the lanes boundary by boundary until none has an open hour,
// then returns their accumulators to the pool.
func (sw *sweep) run() error {
	s := sw.s
	var err error
	for n := BatchSize; len(sw.active) > 0 && err == nil; n += BatchSize {
		err = sw.boundary(n)
	}
	for i := range sw.lanes {
		if a := sw.lanes[i].acc; a != nil {
			putHourAcc(a)
			sw.lanes[i].acc = nil
		}
	}
	if sw.tmp != nil {
		putTmp(sw.tmp)
		sw.tmp = nil
	}
	s.tel.estimates.Add(sw.ests)
	s.tel.prunedCandidates.Add(sw.pruned)
	s.tel.hourPrices.Add(sw.pricedSamples)
	s.tel.screened.Add(sw.screened)
	s.Sweeps.Screened.Add(sw.screened)
	s.Sweeps.PrunedUnpriced.Add(sw.unpriced)
	s.Sweeps.Priced.Add(sw.pricedSamples / BatchSize)
	s.Sweeps.ReplayNS.Add(sw.replayNS)
	s.Sweeps.PriceNS.Add(sw.priceNS)
	s.Sweeps.ScreenNS.Add(sw.screenNS)
	return err
}

// replay appends one batch to the bases of sw.fresh under an evaluation
// slot. The callers hold those bases' locks: lock first, slot second.
//
//caribou:hot
func (sw *sweep) replay(n int) error {
	if len(sw.fresh) == 0 {
		return nil
	}
	if sw.sem != nil {
		sw.sem <- struct{}{}
	}
	lap := sw.s.tel.rec.Lap()
	err := sw.s.replayBatch(sw.fresh, n-BatchSize)
	sw.replayNS += lap.NS()
	if sw.sem != nil {
		<-sw.sem
	}
	sw.fresh = sw.fresh[:0]
	return err
}

// boundary brings every active lane to sample count n and settles it
// there. Lanes whose basis is free are taken together: those lacking the
// batch replay it in one shared sweep. A basis another goroutine holds —
// another hour of the same solve is extending or pricing it — is waited
// for afterwards, one at a time, with no slot and no other basis held, so
// waiting can neither starve the replay workers nor deadlock.
func (sw *sweep) boundary(n int) error {
	s := sw.s
	// What a boundary spends outside replay and screening is pricing, with
	// its summaries and prune checks (and any wait for a late lane's basis).
	lap, other := s.tel.rec.Lap(), sw.replayNS+sw.screenNS
	held, late := sw.held[:0], sw.late[:0]
	for _, ln := range sw.active {
		if !ln.b.mu.TryLock() {
			late = append(late, ln)
			continue
		}
		held = append(held, ln)
		if ln.b.n < n {
			sw.fresh = append(sw.fresh, ln.b)
		}
	}
	err := sw.replay(n)
	sw.active = sw.active[:0]
	for _, ln := range held {
		if err == nil {
			err = sw.settle(ln, n)
		}
		ln.b.mu.Unlock()
	}
	for _, ln := range late {
		if err != nil {
			break
		}
		ln.b.mu.Lock()
		if ln.b.n < n {
			sw.fresh = append(sw.fresh, ln.b)
			err = sw.replay(n)
		}
		if err == nil {
			err = sw.settle(ln, n)
		}
		ln.b.mu.Unlock()
	}
	sw.priceNS += lap.NS() - (sw.replayNS + sw.screenNS - other)
	return err
}

// screenMinHours is the shortest window a sweep screens: the statistics
// cost two hour pricings a plan, which a one-hour window cannot win back.
// screenTol is how far a predicted carbon mean must clear a threshold: the
// prediction is within 4e-13 of what pricing would return (screenRow), so
// the estimate itself is above — whatever margin the threshold carries.
const (
	screenMinHours = 4
	screenTol      = 1e-12
)

// screen is settle's first clause, at the first boundary of a window of at
// least screenMinHours: it closes, unpriced, every open hour at which the
// lane's first block proves the estimate stops there with a metric mean
// above the hour's threshold (latency and cost means are the estimate's
// own). The decision reads the plan's block, the hour's tables and the
// hour's threshold, nothing else. With rows.Park set, a lane proven at
// every compiled hour and still open at one is parked instead: its basis
// moves to Park carrying what the block proves and every hour closes,
// uncounted — the caller's next sweep decides them.
func (sw *sweep) screen(ln *lane, st *boundStat) error {
	b := ln.b
	scr := sw.s.screenRow(b)
	est := Estimate{Samples: BatchSize, Converged: true, LatencyMean: st.latSum / BatchSize, CostMean: st.costSum / BatchSize}
	open, closed := ln.open[:0], len(ln.open)
	for _, hs := range ln.open {
		h := sw.h0 + hs
		m := scr[h]
		if !math.IsInf(m, -1) {
			switch sw.rows.Metric {
			case BatchCostMean:
				m = est.CostMean
			case BatchLatencyMean:
				m = est.LatencyMean
			}
		}
		if thr, _ := sw.rows.at(h, BatchSize); !(m-screenTol*math.Abs(m) > thr) {
			open = append(open, hs)
		}
	}
	ln.open, closed = open, closed-len(open)
	if len(open) == 0 || sw.rows.Park == nil || math.IsInf(slices.Min(scr), -1) {
		sw.screened += int64(closed)
		return nil
	}
	if sw.tmp == nil {
		sw.tmp = getTmp()
	}
	if err := b.sharedP95(st, BatchSize, sw.tmp[:]); err != nil {
		return err
	}
	est.LatencyP95, est.CostP95 = st.latP95, st.costP95
	b.moveTo(sw.rows.Park)
	b.parked = &RowScreen{Estimate: est, Carbon: scr}
	ln.open = open[:0]
	return nil
}

// settle brings the lane to sample count n: at the first boundary the
// screen clause, then an accumulator for what is left to price — a lane
// screened or parked whole never holds one — and at every boundary price.
//
//caribou:hot
func (sw *sweep) settle(ln *lane, n int) error {
	if n == BatchSize {
		if st := ln.b.statAt(0); sw.nh >= screenMinHours && st.sharedOK {
			lap := sw.s.tel.rec.Lap()
			err := sw.screen(ln, st)
			sw.screenNS += lap.NS()
			if err != nil || len(ln.open) == 0 {
				return err
			}
		}
		ln.acc = getHourAcc(sw.nh)
	}
	return sw.price(ln, n)
}

// price prices the lane's newest block at every open hour — one block
// kernel call per hour (priceBlock) on the hour's coefficients gathered
// once — and applies the stopping rule and the prune rule at sample count
// n. Where the shared half already rules out a stop (the latency or cost CV
// fails short of MaxSamples), the prune check runs first, on the exact
// cost or latency sum or on the carbon floor (carbonFloor), and a cell it
// closes is never priced; the floor is below the priced sum and lowerBound
// is monotone in it, so the exact check would close the cell too. A lane
// with an hour still open afterwards rejoins sw.active.
//
//caribou:hot
func (sw *sweep) price(ln *lane, n int) error {
	s := sw.s
	b, a := ln.b, ln.acc
	k := n/BatchSize - 1
	st := b.statAt(k)
	fn := float64(n)
	latMean, costMean := st.latSum/fn, st.costSum/fn
	recs, carb := b.blocks[k][2*BatchSize:], a.block(k)
	coef := sw.coef[:b.width()]
	early := !st.sharedOK && n < MaxSamples && len(sw.rows.Threshold) > 0 && s.bnd.ok
	var slotSum []float64
	if early && sw.rows.Metric == BatchCarbonMean {
		slotSum = b.slotSums(k)
	}

	open := ln.open[:0]
	for _, hs := range ln.open {
		h := sw.h0 + hs
		b.gather(coef, s.intensity[h], s.txRF[h])
		if early {
			partial, ok := sw.sharedSum(st)
			if !ok {
				partial, ok = carbonFloor(slotSum, coef, len(b.regs), a.sums[hs])
			}
			if ok && sw.prunedAt(h, n, partial) {
				sw.pruned++
				sw.unpriced++
				continue
			}
		}
		carbSum := priceBlock(carb[hs*BatchSize:(hs+1)*BatchSize], recs, coef, len(b.regs), a.sums[hs])
		a.sums[hs] = carbSum
		sw.pricedSamples += BatchSize

		carbMean := carbSum / fn
		done := st.sharedOK && a.carbCV(hs, n, carbMean) < TargetCV
		if done || n >= MaxSamples {
			if sw.tmp == nil {
				sw.tmp = getTmp()
			}
			tmp := sw.tmp[:]
			if err := b.sharedP95(st, n, tmp); err != nil {
				return err
			}
			carbP95, err := p95(a.blocks, hs*BatchSize, n, tmp)
			if err != nil {
				return err
			}
			if ln.ests == nil {
				ln.ests = make([]Estimate, len(ln.out))
			}
			est := &ln.ests[hs]
			*est = Estimate{
				Samples:     n,
				LatencyMean: latMean,
				LatencyP95:  st.latP95,
				CostMean:    costMean,
				CostP95:     st.costP95,
				CarbonMean:  carbMean,
				CarbonP95:   carbP95,
				Converged:   done,
			}
			ln.out[hs] = est
			sw.ests++
			continue
		}
		partial, shared := sw.sharedSum(st)
		if !shared {
			partial = carbSum
		}
		if sw.prunedAt(h, n, partial) {
			sw.pruned++
			continue
		}
		open = append(open, hs)
	}
	ln.open = open
	if len(open) > 0 {
		sw.active = append(sw.active, ln)
	}
	return nil
}

// sharedSum returns the boundary's running sum of the pruned metric when
// it is latency or cost — hour-free, the basis's own — and ok false for
// carbon.
func (sw *sweep) sharedSum(st *boundStat) (sum float64, ok bool) {
	switch sw.rows.Metric {
	case BatchCostMean:
		return st.costSum, true
	case BatchLatencyMean:
		return st.latSum, true
	}
	return 0, false
}

// prunedAt reports whether a lane whose metric sum over its first n
// samples at hour h is partial can be abandoned there: that sum plus the
// hour's floors for the samples still to come (lowerBound) exceeds the
// hour's threshold at every count the stopping rule could halt at. The
// bound looks ahead to max(n, Horizon[h]), extending the hour's bound
// columns that far on demand and never reading how much further other
// checks took them; only the ok latch sees more than that, and it only
// turns pruning off.
func (sw *sweep) prunedAt(h, n int, partial float64) bool {
	s := sw.s
	thr, horizon := sw.rows.at(h, n)
	if math.IsInf(thr, 1) || !s.bnd.ok {
		return false
	}
	bnd := s.bounds[h].ensure(s, h, horizon)
	if !bnd.ok {
		return false
	}
	pre := bnd.preCarb
	switch sw.rows.Metric {
	case BatchCostMean:
		pre = bnd.preCost
	case BatchLatencyMean:
		pre = bnd.preLat
	}
	return lowerBound(partial, pre, n, horizon) > thr
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

// EstimateBases evaluates every plan of bases at every hour of the window
// [h0, h0+nh), replaying only what the bases lack: out[i][k] is plan i at
// hour h0+k — nil exactly when the sweep proved that plan's Metric mean
// there exceeds prune's threshold for the hour, by the screen at the first
// boundary or by the bounds at a later one, or parked the plan; otherwise
// bit-identical to Estimate(plan, h0+k). A nil prune prunes nothing. Bases
// may be shared with concurrent calls at other hours; sem, when non-nil, is
// the semaphore every replay runs under — a call waits for another's basis
// without holding a slot. Snapshots without tapes — and several plans on a
// snapshot with deferred exec errors, which must surface in first-plan
// order — fall back to one unpruned Estimate per (plan, hour), each under a
// slot of sem.
func (s *Snapshot) EstimateBases(bases []*Basis, h0, nh int, prune *RowPrune, sem chan struct{}) ([][]*Estimate, error) {
	if nh < 1 || h0 < 0 || h0+nh > len(s.hours) {
		return nil, fmt.Errorf("montecarlo: hour window [%d,%d) outside compiled window [0,%d)", h0, h0+nh, len(s.hours))
	}
	out := make([][]*Estimate, len(bases))
	cells := make([]*Estimate, len(bases)*nh)
	for i := range out {
		out[i] = cells[i*nh : (i+1)*nh : (i+1)*nh]
	}
	if s.tape == nil || s.anyExecErr && len(bases) > 1 {
		for i, b := range bases {
			for k := range out[i] {
				if sem != nil {
					sem <- struct{}{}
				}
				est, err := s.Estimate(b.assign, h0+k)
				if sem != nil {
					<-sem
				}
				if err != nil {
					return nil, err
				}
				out[i][k] = est
			}
		}
		return out, nil
	}
	if prune == nil {
		prune = &RowPrune{}
	}
	s.tel.sweeps.Inc()
	s.tel.sweepLanes.Add(int64(len(bases)))
	if err := s.newSweep(bases, out, h0, nh, prune, sem).run(); err != nil {
		return nil, err
	}
	return out, nil
}

// newBases builds call-private bases for assigns over a fresh arena.
func (s *Snapshot) newBases(assigns [][]int) ([]*Basis, *BasisArena, error) {
	arena := NewBasisArena()
	bases := make([]*Basis, len(assigns))
	for i, a := range assigns {
		b, err := s.NewBasis(arena, a)
		if err != nil {
			return nil, nil, err
		}
		bases[i] = b
	}
	return bases, arena, nil
}

// EstimateBatch evaluates all candidate plans at hour h: EstimateBases
// over bases that live for the call, read at its one hour. Results align
// with assigns; an entry is nil exactly when prune proved that candidate's
// Metric mean at h exceeds Threshold[h], and otherwise bit-identical to
// Estimate(assigns[i], h).
func (s *Snapshot) EstimateBatch(assigns [][]int, h int, prune *RowPrune) ([]*Estimate, error) {
	bases, arena, err := s.newBases(assigns)
	if err != nil {
		return nil, err
	}
	defer arena.Release()
	rows, err := s.EstimateBases(bases, h, 1, prune, nil)
	if err != nil {
		return nil, err
	}
	out := make([]*Estimate, len(rows))
	for i, row := range rows {
		out[i] = row[0]
	}
	return out, nil
}
