package montecarlo

// Hour rows: one sweep over the tape prices a plan at every compiled hour.
//
// The Monte Carlo stream is per solve (tape.go), so in a replay the hour
// enters through exactly two reads: intensity[h][r] in the execution-carbon
// term and txRF[h][pair] in the transmission-carbon terms. The latency
// chain, the cost sum, the scratch vectors and every tape load are the
// same for all hours. A row sweep therefore runs the batch step loop
// (batch.go) once per lane — latency and cost once — and, where the
// single-hour kernels do
//
//	smp.execCarbon += inten[r] * kwh * PUE
//	smp.txCarbon   += rf[pair] * q
//
// it accumulates, for every hour h still open for that lane,
//
//	ex[h] += intenT[r*H+h] * kwh * PUE
//	tx[h] += rfT[pair*H+h] * q
//
// over hour-major tables baked at Compile. Each hour's accumulator sees the
// operands of a single-hour replay in the same order, so every Estimate
// field of every (plan, hour) is bit-identical to Estimate(assign, h).
//
// What stays per hour is what reads the carbon series: the §7.1 stopping
// rule (latency and cost CVs are computed once per lane per boundary, the
// carbon CV per open hour), the summary (an hour is summarized at *its
// own* boundary from the series prefix, so the shared latency/cost series
// are never permuted while the lane is live), and bound pruning — per
// (plan, hour), against the hour's threshold and the hour's hourBounds
// sidecar. A lane leaves the sweep when none of its hours is open.
//
// Only the per-hour carbon series are kept (exec/tx means are running
// left-to-right sums, the exact prefix of stats.Mean's summation), and row
// accumulators are pooled.

import (
	"math"

	"caribou/internal/carbon"
	"caribou/internal/stats"
)

// RowPrune carries a row sweep's per-hour abandonment thresholds: a plan
// may be abandoned at hour h once its final Metric mean there provably
// exceeds Threshold[h] (+Inf never prunes). Horizon[h] is the sample count
// of the estimate Threshold[h] was derived from — the home row's, in
// exhaustive enumeration: the hour's bound columns are read that far ahead
// of the lane's own boundary and no further, so a prune decision is a pure
// function of (plan, hour, threshold, horizon) — never of what other rows,
// hours or workers happened to compile first.
type RowPrune struct {
	Metric    BatchMetric
	Threshold []float64
	Horizon   []int
}

// bakeHourTables transposes intensity and txRF into the hour-major tables
// the row kernel streams: one contiguous run of H values per region (pair).
func (s *Snapshot) bakeHourTables() {
	H, nR := len(s.hours), s.nR
	s.intenT = make([]float64, nR*H)
	s.rfT = make([]float64, nR*nR*H)
	for h := 0; h < H; h++ {
		for r, v := range s.intensity[h] {
			s.intenT[r*H+h] = v
		}
		for p, v := range s.txRF[h] {
			s.rfT[p*H+h] = v
		}
	}
}

// rowAcc is one lane's series store through a row sweep: the shared
// latency and cost series, the carbon series of every hour in per-batch
// blocks (batch b's samples of hour h at blocks[b][h*BatchSize:]), the
// running sums whose prefixes are the means, and the per-hour accumulators
// of the sample in flight. Blocks are appended as the lane outlives
// batches — never regrown, so a long lane copies nothing and leaves no
// garbage — and stay with the accumulator when it returns to the pool.
type rowAcc struct {
	lat, cost []float64 // MaxSamples each
	tmp       []float64 // percentile scratch, MaxSamples
	blocks    [][]float64
	// Per hour.
	ex, tx                []float64
	exSum, txSum, carbSum []float64
	latSum, costSum       float64
}

// reset readies a pooled accumulator for a lane over H hours, keeping the
// blocks earlier lanes of the same width grew it to.
func (a *rowAcc) reset(H int) {
	if a.lat == nil {
		shared := make([]float64, 3*MaxSamples)
		a.lat, a.cost = shared[:MaxSamples:MaxSamples], shared[MaxSamples:2*MaxSamples:2*MaxSamples]
		a.tmp = shared[2*MaxSamples:]
	}
	if len(a.ex) != H {
		hourly := make([]float64, 5*H)
		a.ex, a.tx = hourly[:H:H], hourly[H:2*H:2*H]
		a.exSum, a.txSum, a.carbSum = hourly[2*H:3*H:3*H], hourly[3*H:4*H:4*H], hourly[4*H:]
		a.blocks = nil
	}
	for h := range a.ex {
		a.ex[h], a.tx[h] = 0, 0
		a.exSum[h], a.txSum[h], a.carbSum[h] = 0, 0, 0
	}
	a.latSum, a.costSum = 0, 0
}

// block returns the carbon block of batch b, appending it on first use.
func (a *rowAcc) block(b int) []float64 {
	if b == len(a.blocks) {
		a.blocks = append(a.blocks, make([]float64, len(a.ex)*BatchSize))
	}
	return a.blocks[b]
}

// carbon gathers hour h's first n carbon samples into the scratch series.
func (a *rowAcc) carbon(h, n int) []float64 {
	for b := 0; b*BatchSize < n; b++ {
		copy(a.tmp[b*BatchSize:], a.blocks[b][h*BatchSize:(h+1)*BatchSize])
	}
	return a.tmp[:n]
}

// rowLane is one candidate plan's state through a row sweep.
type rowLane struct {
	assign []int
	out    []*Estimate // the caller's result row, indexed by hour
	start  []float64
	ready  []float64
	// lat and cost are the sample in flight's hour-independent chains.
	lat, cost float64
	acc       *rowAcc
	carb      []float64  // acc's block for the batch in flight
	open      []int      // hours still sampling, ascending
	ests      []Estimate // backing store of this lane's summaries
}

// EstimateRows evaluates every candidate plan at every compiled hour
// through shared sweeps over the tape: out[i][h] is nil exactly when
// pruning proved that plan's Metric mean at hour h exceeds Threshold[h],
// and otherwise bit-identical to Estimate(assigns[i], h). Snapshots
// without SoA tapes (or with deferred exec errors) fall back to
// sequential single-hour evaluation with pruning disabled.
func (s *Snapshot) EstimateRows(assigns [][]int, prune *RowPrune) ([][]*Estimate, error) {
	H := len(s.hours)
	for _, a := range assigns {
		if err := s.checkArgs(a, 0); err != nil {
			return nil, err
		}
	}
	out := make([][]*Estimate, len(assigns))
	cells := make([]*Estimate, len(assigns)*H)
	for i := range out {
		out[i] = cells[i*H : (i+1)*H : (i+1)*H]
	}
	if len(assigns) == 0 {
		return out, nil
	}
	if s.tapes == nil || !s.soaTapes || s.anyExecErr {
		for i, a := range assigns {
			for h := range out[i] {
				est, err := s.Estimate(a, h)
				if err != nil {
					return nil, err
				}
				out[i][h] = est
			}
		}
		return out, nil
	}

	n := s.nodes.Len()
	arena := make([]float64, 2*len(assigns)*n)
	hours := make([]int, len(assigns)*H)
	ls := make([]rowLane, len(assigns))
	active := make([]*rowLane, len(assigns))
	for i, a := range assigns {
		ln := &ls[i]
		ln.assign, ln.out = a, out[i]
		ln.acc = getRowAcc(H)
		ln.start, arena = arena[:n:n], arena[n:]
		ln.ready, arena = arena[:n:n], arena[n:]
		ln.open, hours = hours[:H:H], hours[H:]
		for h := range ln.open {
			ln.open[h] = h
		}
		active[i] = ln
	}
	err := s.rowSweep(active, prune)
	for i := range ls {
		putRowAcc(ls[i].acc)
		ls[i].acc = nil
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rowSweep runs the batched stopping rule from sample 0 over all lanes:
// per batch, replay BatchSize samples across the live lanes, then settle
// every open (lane, hour) at the boundary. active is compacted in place.
func (s *Snapshot) rowSweep(active []*rowLane, prune *RowPrune) error {
	s.tel.rowSweeps.Inc()
	var prices int64
	n := 0
	for n < MaxSamples && len(active) > 0 {
		td := s.tape.ensure(s, n+BatchSize)
		for _, ln := range active {
			ln.carb = ln.acc.block(n / BatchSize)
			prices += int64(BatchSize * len(ln.open))
		}
		for i := n; i < n+BatchSize; i++ {
			s.rowInitSample(td, i, active)
			s.rowRunSteps(td, td.stepOff[i], td.stepOff[i+1], active)
			for _, ln := range active {
				ln.commit(i)
			}
		}
		n += BatchSize
		var err error
		if active, err = s.rowBoundary(active, n, prune); err != nil {
			return err
		}
	}
	s.tel.hourPrices.Add(prices)
	return nil
}

// priceHours adds row[h]*q to every open hour's accumulator: the
// transmission-carbon term of one tape event, priced at each hour.
func priceHours(acc, row []float64, open []int, q float64) {
	if len(open) == len(acc) {
		row = row[:len(acc)]
		for h := range acc {
			acc[h] += row[h] * q
		}
		return
	}
	for _, h := range open {
		acc[h] += row[h] * q
	}
}

// priceExec adds row[h]*kwh*PUE to every open hour's accumulator — the
// single-hour kernels' inten[r]*kwh*PUE, in their grouping.
func priceExec(acc, row []float64, open []int, kwh float64) {
	if len(open) == len(acc) {
		row = row[:len(acc)]
		for h := range acc {
			acc[h] += row[h] * kwh * carbon.PUE
		}
		return
	}
	for _, h := range open {
		acc[h] += row[h] * kwh * carbon.PUE
	}
}

// rowInitSample resets every lane's scratch and replays recorded sample
// i's entry block for each lane, mirroring batchInitSample.
func (s *Snapshot) rowInitSample(td *tapeData, i int, lanes []*rowLane) {
	home := s.home
	nR, H := s.nR, len(s.hours)
	rfT := s.rfT
	entry := s.start
	entryBytes := td.entry[i]
	q := td.soa.entry9[i]
	eb := entryBytes
	if eb < 0 {
		eb = 0
	}
	base := s.kvAccess[home] + s.msgOverhead
	for _, ln := range lanes {
		st, rd := ln.start, ln.ready
		for k := range st {
			st[k] = 0
			rd[k] = 0
		}
		he := home*nR + ln.assign[entry]
		var cost float64
		cost += s.dynReadUSD
		cost += s.snsUSD[home]
		if entryBytes > 0 {
			priceHours(ln.acc.tx, rfT[he*H:he*H+H], ln.open, q)
			cost += q * s.egressPerGB[he]
		}
		st[entry] = base + (s.txBase[he] + eb*s.txPerByte[he])
		ln.lat, ln.cost = 0, cost
	}
}

// rowRunSteps is batchRunSteps with the two hour-dependent accumulations
// widened to every open hour of the lane; everything else — the latency
// chain, the cost sum, the scratch updates, their order — is that body
// verbatim. Callers must guarantee no exec errors exist.
func (s *Snapshot) rowRunSteps(td *tapeData, lo, hi int32, lanes []*rowLane) {
	c := td.soa
	home := s.home
	nR, H := s.nR, len(s.hours)
	intenT, rfT := s.intenT, s.rfT
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
			lat, cost := ln.lat, ln.cost
			ex, tx, open := ln.acc.ex, ln.acc.tx, ln.open
			r := ln.assign[n]
			var startN float64
			if isSync {
				hr := home*nR + r
				rf := rfT[hr*H : hr*H+H]
				cost += snsHome
				priceHours(tx, rf, open, controlBytes/1e9)
				cost += controlBytes / 1e9 * egress[hr]
				arrive := ln.ready[n] + msgOverhead + (txBase[hr] + controlBytes*txPerByte[hr])
				ld := staged
				if ld < 0 {
					ld = 0
				}
				load := kvAccess[r] + (txBase[hr] + ld*txPerByte[hr])
				cost += dynRead
				if staged > 0 {
					priceHours(tx, rf, open, aux9v)
					cost += aux9v * egress[hr]
				}
				startN = arrive + load
			} else {
				startN = ln.start[n]
			}
			base := r * 3
			finish := startN + drcRow[base]
			if finish > lat {
				lat = finish
			}
			priceExec(ex, intenT[r*H:r*H+H], open, drcRow[base+1])
			cost += drcRow[base+2]
			if isOut {
				if outV > 0 {
					rh := r*nR + home
					priceHours(tx, rfT[rh*H:rh*H+H], open, out9v)
					cost += out9v * egress[rh]
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
						cost += dynWrite // skip annotation
					case tapeEdgeStage:
						b := bytesC[ei]
						rh := r*nR + home
						cost += dynWrite
						cost += dynWrite
						tb := b
						if tb < 0 {
							tb = 0
						}
						if b > 0 {
							q := e9C[ei]
							priceHours(tx, rfT[rh*H:rh*H+H], open, q)
							cost += q * egress[rh]
						}
						ready := finish + (txBase[rh] + tb*txPerByte[rh]) + kvAccess[r]
						if ready > ln.ready[to] {
							ln.ready[to] = ready
						}
					case tapeEdgeDirect:
						cost += snsUSD[r]
						total := bytesC[ei] + controlBytes
						rt := r*nR + ln.assign[to]
						if total > 0 {
							q := e9C[ei]
							priceHours(tx, rfT[rt*H:rt*H+H], open, q)
							cost += q * egress[rt]
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
			ln.lat, ln.cost = lat, cost
		}
	}
}

// commit appends the finished sample i to the lane's series and running
// sums — seriesAcc.add per open hour, the shared series once — and zeroes
// the per-hour accumulators for the next sample.
func (ln *rowLane) commit(i int) {
	a := ln.acc
	a.lat[i], a.cost[i] = ln.lat, ln.cost
	a.latSum += ln.lat
	a.costSum += ln.cost
	// Hoisted: the stores below could alias a's fields, so the compiler
	// would otherwise reload every slice header per hour.
	ex, tx, carb, j := a.ex, a.tx, ln.carb, i%BatchSize
	exSum, txSum, carbSum := a.exSum, a.txSum, a.carbSum
	for _, h := range ln.open {
		e, t := ex[h], tx[h]
		c := e + t
		carb[h*BatchSize+j] = c
		exSum[h] += e
		txSum[h] += t
		carbSum[h] += c
		ex[h], tx[h] = 0, 0
	}
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

// carbCV is meanCV of hour h's first n carbon samples.
func (a *rowAcc) carbCV(h, n int, mean float64) float64 {
	var sq float64
	for b := 0; b*BatchSize < n; b++ {
		sq = sqDev(sq, a.blocks[b][h*BatchSize:(h+1)*BatchSize], mean)
	}
	return cvOf(sq, n, mean)
}

// rowBoundary settles every open (lane, hour) at sample count n, in
// batchBoundary's order: an hour that converged — the check runs for every
// open hour at every boundary, on exactly the series the single-hour rule
// sees — or exhausted the tape is summarized; an unconverged hour whose
// bound proves its final mean must exceed its threshold is abandoned; the
// rest stay open. Lanes with no open hour leave the sweep.
func (s *Snapshot) rowBoundary(active []*rowLane, n int, prune *RowPrune) ([]*rowLane, error) {
	live := active[:0]
	fn := float64(n)
	var estimates, pruned, retired int64
	for _, ln := range active {
		a := ln.acc
		lat, cost := a.lat[:n], a.cost[:n]
		latMean, costMean := a.latSum/fn, a.costSum/fn
		// Latency and cost do not read the hour: one CV each per boundary.
		sharedOK := cvOf(sqDev(0, lat, latMean), n, latMean) < TargetCV &&
			cvOf(sqDev(0, cost, costMean), n, costMean) < TargetCV
		var latP95, costP95 float64
		haveP95 := false
		open := ln.open[:0]
		for _, h := range ln.open {
			carbMean := a.carbSum[h] / fn
			done := sharedOK && a.carbCV(h, n, carbMean) < TargetCV
			if done || n >= MaxSamples {
				if !haveP95 {
					// Other hours may still be sampling: select on a copy so
					// the shared series keep their order.
					var err error
					copy(a.tmp, lat)
					if latP95, err = stats.PercentileInPlace(a.tmp[:n], 95); err != nil {
						return nil, err
					}
					copy(a.tmp, cost)
					if costP95, err = stats.PercentileInPlace(a.tmp[:n], 95); err != nil {
						return nil, err
					}
					haveP95 = true
				}
				carbP95, err := stats.PercentileInPlace(a.carbon(h, n), 95)
				if err != nil {
					return nil, err
				}
				if ln.ests == nil {
					ln.ests = make([]Estimate, len(ln.out))
				}
				est := &ln.ests[h]
				*est = Estimate{
					Samples:        n,
					LatencyMean:    latMean,
					LatencyP95:     latP95,
					CostMean:       costMean,
					CostP95:        costP95,
					CarbonMean:     carbMean,
					CarbonP95:      carbP95,
					ExecCarbonMean: a.exSum[h] / fn,
					TxCarbonMean:   a.txSum[h] / fn,
					Converged:      done,
				}
				ln.out[h] = est
				estimates++
				continue
			}
			if s.rowPruned(a, h, n, prune) {
				pruned++
				continue
			}
			open = append(open, h)
		}
		ln.open = open
		if len(open) == 0 {
			retired++
			continue
		}
		live = append(live, ln)
	}
	s.tel.estimates.Add(estimates)
	s.tel.prunedCandidates.Add(pruned)
	s.tel.samples.Add(retired * int64(n))
	s.tel.tapeReplays.Add(retired * int64(n))
	return live, nil
}

// rowPruned reports whether hour h of the lane can be abandoned at sample
// count n: lowerBound over the lane's running metric sum — the value
// batchLowerBound re-accumulates — against the hour's own floors out to
// max(n, Horizon[h]). The header is extended (and its floors baked) that
// far on demand; how much further other rows have extended it is never
// read. Only the ok latch can see that, and it only turns pruning off.
func (s *Snapshot) rowPruned(a *rowAcc, h, n int, prune *RowPrune) bool {
	if prune == nil || h >= len(prune.Threshold) || math.IsInf(prune.Threshold[h], 1) || !s.bnd.ok {
		return false
	}
	horizon := n
	if h < len(prune.Horizon) {
		horizon = max(n, min(prune.Horizon[h], MaxSamples))
	}
	b := s.tapes[h].ensure(s, h, horizon).bnd
	if b == nil || !b.ok {
		return false
	}
	partial, pre := a.carbSum[h], b.preCarb
	switch prune.Metric {
	case BatchCostMean:
		partial, pre = a.costSum, b.preCost
	case BatchLatencyMean:
		partial, pre = a.latSum, b.preLat
	}
	return lowerBound(partial, pre, n, horizon) > prune.Threshold[h]
}
