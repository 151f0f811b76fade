package montecarlo

// Hour-free replay: a replayed sample keeps its energy by region and its
// gigabytes by region pair; hours are priced afterwards.
//
// The carbon model is linear in the hour's grid signal — execution carbon
// is intensity × energy × PUE (Eq 7.1) and transmission carbon is route
// intensity × factor × GB (Eq 7.5) — and the Monte Carlo stream is per
// solve (tape.go), so the hour enters a replay through exactly those two
// products. Every sampler therefore accumulates, in step order,
//
//	kwh[r]   += energy of the step executed in region r
//	gb[pair] += gigabytes moved over the region pair
//
// next to the latency chain and the cost sum, and prices the sample by one
// definition (priceSample; a sweep runs it four samples at a time in
// priceBlock):
//
//	exec(h) = Σ_{r asc}    I[h][r]     · kwh[r] · PUE
//	tx(h)   = Σ_{pair asc} RF[h][pair] · gb[pair]
//
// A Basis is what one plan's replay leaves behind: per sample the latency,
// the cost, and kwh/gb compacted to the plan's static slots — the regions
// and region pairs its assignment can touch at all (staticSlots) — in
// per-batch blocks carved from a per-solve arena. A slot a sample never
// reached holds an exact zero, and x + I·0·PUE = x, so pricing the compact
// record equals pricing the dense nR + nR² accumulators the reference
// sampler (Snapshot.sampleOnce) prices by the same definition:
// the parity grid is bit-exact under this definition. Against the
// per-event sums of the tests' oracle — Σ_events I·kwh_e·PUE — it differs
// by summation order only (≈1e-15 relative; tests hold it under 1e-12).
//
// One plan's basis serves every hour that wants the plan: the first hour
// replays a batch (≈24 µs a plan on Text2Speech), later hours apply their
// own §7.1 stopping rule to the cached series (≈3.2 µs per hour), and the
// basis grows by a batch only when some hour needs a boundary no earlier
// hour reached.

import (
	"math"
	"sync"

	"caribou/internal/carbon"
)

// priceSample prices one sample's energy and traffic at one hour: inten
// and rf are the hour's intensity and transmission tables, regs/pairs the
// table indices of the kwh/gb entries, ascending. It is the definition of
// a sample's carbon: the reference sampler prices with it directly, and
// a sweep's block kernel (priceBlock) runs its arithmetic four samples at
// a time, term for term.
func priceSample(inten, rf []float64, regs, pairs []int32, kwh, gb []float64) (exec, tx float64) {
	for j, r := range regs {
		exec += inten[r] * kwh[j] * carbon.PUE
	}
	for j, p := range pairs {
		tx += rf[p] * gb[j]
	}
	return exec, tx
}

// gather fills coef with hour tables' coefficients of the basis's slots:
// inten[regs[j]] for the region slots, then rf[pairs[j]] for the pair
// slots — what priceSample reads through the slot index, read once.
func (b *Basis) gather(coef, inten, rf []float64) {
	for j, r := range b.regs {
		coef[j] = inten[r]
	}
	coef = coef[len(b.regs):]
	for j, p := range b.pairs {
		coef[j] = rf[p]
	}
}

// priceBlock prices four samples per round and leaves no remainder, so
// BatchSize must be a multiple of four (a compile error otherwise).
var _ [0]struct{} = [BatchSize % 4]struct{}{}

// priceBlock prices one block's samples at one hour. coef is the hour's
// coefficient per slot (gather), its first nRegs the region slots; recs
// holds len(series) records of len(coef) slots each. Sample i's carbon
// goes to series[i], and the running sums sums[0..2] (exec, tx, carbon)
// take its exec, tx and carbon in sample order. Each sample is
// priceSample's two chains — c[j]·x[j]·PUE over the region slots, c[j]·x[j]
// over the pair slots, j ascending — so every bit is the per-sample
// loop's; four samples' chains are in flight at once, like the replay
// kernel's lanes (lanesInFlight), since a chain is bound by add latency.
func priceBlock(series, recs, coef []float64, nRegs int, sums *[3]float64) {
	// Capping coef at w and cutting each record to w lets the compiler prove
	// every index in the two chain loops in bounds.
	w := len(coef)
	coef = coef[:w:w]
	cr := coef[:nRegs]
	exSum, txSum, carbSum := sums[0], sums[1], sums[2]
	for i := 0; i+4 <= len(series); i += 4 {
		r0 := recs[i*w:]
		r1, r2, r3 := r0[w:], r0[2*w:], r0[3*w:]
		r0, r1, r2, r3 = r0[:w], r1[:w], r2[:w], r3[:w]
		var e0, e1, e2, e3 float64
		for j, c := range cr {
			e0 += c * r0[j] * carbon.PUE
			e1 += c * r1[j] * carbon.PUE
			e2 += c * r2[j] * carbon.PUE
			e3 += c * r3[j] * carbon.PUE
		}
		var t0, t1, t2, t3 float64
		for j := nRegs; j < w; j++ {
			c := coef[j]
			t0 += c * r0[j]
			t1 += c * r1[j]
			t2 += c * r2[j]
			t3 += c * r3[j]
		}
		c0, c1, c2, c3 := e0+t0, e1+t1, e2+t2, e3+t3
		out := series[i : i+4]
		out[0], out[1], out[2], out[3] = c0, c1, c2, c3
		exSum, txSum, carbSum = exSum+e0, txSum+t0, carbSum+c0
		exSum, txSum, carbSum = exSum+e1, txSum+t1, carbSum+c1
		exSum, txSum, carbSum = exSum+e2, txSum+t2, carbSum+c2
		exSum, txSum, carbSum = exSum+e3, txSum+t3, carbSum+c3
	}
	sums[0], sums[1], sums[2] = exSum, txSum, carbSum
}

// priceDense prices dense per-region and per-pair accumulators at hour h —
// the reference samplers' form — and zeroes them for the next sample.
func (s *Snapshot) priceDense(h int, kwh, gb []float64) (exec, tx float64) {
	exec, tx = priceSample(s.intensity[h], s.txRF[h], s.allRegs, s.allPairs, kwh, gb)
	clear(kwh)
	clear(gb)
	return exec, tx
}

// staticSlots lists, ascending, the regions and the region pairs
// (from*nR+to) a replay of assign can accumulate into: every stage's
// region; home→entry; home→sync node; stage→home for staged and
// write-back payloads; stage→successor for direct edges. The list depends
// on the plan and the DAG only, never on a sample's realized control flow.
func (s *Snapshot) staticSlots(assign []int) (regs, pairs []int32) {
	nR, home := s.nR, s.home
	seen := make([]bool, nR+nR*nR)
	regSeen, pairSeen := seen[:nR], seen[nR:]
	pairSeen[home*nR+assign[s.start]] = true
	for n, r := range assign {
		regSeen[r] = true
		if s.isSync[n] {
			pairSeen[home*nR+r] = true
		}
		if s.output[n] != nil && len(s.outEdges[n]) == 0 {
			pairSeen[r*nR+home] = true
		}
		for _, e := range s.outEdges[n] {
			if e.toSync {
				pairSeen[r*nR+home] = true
			} else {
				pairSeen[r*nR+assign[e.to]] = true
			}
		}
	}
	count := 0
	for _, ok := range seen {
		if ok {
			count++
		}
	}
	slots := make([]int32, 0, count)
	for r, ok := range regSeen {
		if ok {
			slots = append(slots, int32(r))
		}
	}
	nRegs := len(slots)
	for p, ok := range pairSeen {
		if ok {
			slots = append(slots, int32(p))
		}
	}
	return slots[:nRegs:nRegs], slots[nRegs:]
}

// Basis is one plan's hour-free replay, extended batch by batch as hours
// ask for boundaries: block k holds samples [k·BatchSize, (k+1)·BatchSize)
// as [lat ×BatchSize][cost ×BatchSize][per sample: kwh by region slot, gb
// by pair slot]. stat caches the hour-independent half of each boundary's
// stopping rule, screen what the first block proves about every hour, parked
// what a sweep left instead of pricing it. mu serializes extension, the
// caches and pricing; EstimateBases takes it before an evaluation slot,
// never after.
type Basis struct {
	mu     sync.Mutex
	assign []int
	regs   []int32
	pairs  []int32
	arena  *BasisArena
	n      int
	blocks [][]float64
	stat   []boundStat
	screen []float64
	parked *RowScreen
}

// boundStat is what the first (plan, hour) to settle at a boundary leaves
// for the others: the latency and cost running sums through the boundary
// (their prefixes are the means), whether both CVs pass, and — once some
// hour stopped there — both p95s.
type boundStat struct {
	latSum, costSum float64
	sharedOK        bool
	haveP95         bool
	latP95, costP95 float64
}

// NewBasis returns assign's empty basis over arena a. The assignment is
// kept, not copied: callers must not modify it afterwards.
func (s *Snapshot) NewBasis(a *BasisArena, assign []int) (*Basis, error) {
	if err := s.checkArgs(assign, 0); err != nil {
		return nil, err
	}
	regs, pairs := s.staticSlots(assign)
	return &Basis{assign: assign, regs: regs, pairs: pairs, arena: a}, nil
}

// Samples reports how many samples the basis holds. Not synchronized:
// meaningful once no evaluation of the basis is in flight.
//
//caribou:allow unreached oracle of TestBasisExtension, TestBasisSurvivesPrunedHour and TestEstimateBasesUntapedLeavesBasisEmpty
func (b *Basis) Samples() int { return b.n }

// width is the per-sample record width of a block's slot section.
func (b *Basis) width() int { return len(b.regs) + len(b.pairs) }

// statAt returns boundary k's cached latency/cost half, computing it — and
// any earlier boundary nobody settled at — on first use. The running sums
// continue left to right across blocks, exactly stats.Mean's summation.
func (b *Basis) statAt(k int) *boundStat {
	for len(b.stat) <= k {
		j := len(b.stat)
		var st boundStat
		if j > 0 {
			st.latSum, st.costSum = b.stat[j-1].latSum, b.stat[j-1].costSum
		}
		// Latency and cost are summed side by side: two independent chains,
		// each in its own series order.
		blk := b.blocks[j]
		lat, cost := blk[:BatchSize], blk[BatchSize:2*BatchSize]
		latSum, costSum := st.latSum, st.costSum
		for i, v := range lat {
			latSum += v
			costSum += cost[i]
		}
		st.latSum, st.costSum = latSum, costSum
		n := (j + 1) * BatchSize
		latMean, costMean := latSum/float64(n), costSum/float64(n)
		var latSq, costSq float64
		for _, bl := range b.blocks[:j+1] {
			lat, cost = bl[:BatchSize], bl[BatchSize:2*BatchSize]
			for i, v := range lat {
				dl, dc := v-latMean, cost[i]-costMean
				latSq += dl * dl
				costSq += dc * dc
			}
		}
		st.sharedOK = cvOf(latSq, n, latMean) < TargetCV && cvOf(costSq, n, costMean) < TargetCV
		b.stat = append(b.stat, st)
	}
	return &b.stat[k]
}

// screenRow returns what the first block proves about each hour, hour-free
// (DESIGN.md "Row screening"): scr[h] is the CarbonMean the reference rule
// stops with at hour h after one batch, or -Inf where the block does not
// prove that stop. With S_j and D_j = sqrt(Σ_i (x_ij − S_j/n)²) the block's
// per-slot sums and deviation norms, and a_j the hour's coefficient of slot
// j, the mean is Σ a_j·S_j / n and, by Minkowski, sqrt(Σ_i (c_i − c̄)²) ≤
// Σ |a_j|·D_j; that ceiling's CV under TargetCV by 1e-6 (≫ the n·ε of these
// sums), with the shared CVs passing, proves the stop. The mean sums
// priceSample's terms by slot, not by sample: within 2(n+w)·ε ≈ 5e-14 for
// terms of one sign, and an hour whose terms cancel beyond 8× is left
// unproven, so within 4e-13 whatever the signs.
func (s *Snapshot) screenRow(b *Basis) []float64 {
	if b.screen != nil {
		return b.screen
	}
	w, nRegs := b.width(), len(b.regs)
	buf := make([]float64, len(s.hours)+3*w)
	sum, dev, coef, scr := buf[:w], buf[w:2*w], buf[2*w:3*w], buf[3*w:]
	ok := b.statAt(0).sharedOK // settle asks only when they pass
	recs := b.blocks[0][2*BatchSize:]
	for j := 0; ok && j < w; j++ {
		var t, q float64
		for i := j; i < len(recs); i += w {
			t += recs[i]
		}
		for i, m := j, t/BatchSize; i < len(recs); i += w {
			q += (recs[i] - m) * (recs[i] - m)
		}
		sum[j], dev[j] = t, math.Sqrt(q)
	}
	for h := range scr {
		scr[h] = math.Inf(-1)
		b.gather(coef, s.intensity[h], s.txRF[h])
		for j := range nRegs {
			coef[j] *= carbon.PUE
		}
		var tot, abs, norm float64
		for j, a := range coef {
			tot += a * sum[j]
			abs += math.Abs(a * sum[j])
			norm += math.Abs(a) * dev[j]
		}
		if ok && abs <= 8*math.Abs(tot) && cvOf(norm*norm, BatchSize, tot/BatchSize) < TargetCV*(1-1e-6) {
			scr[h] = tot / BatchSize
		}
	}
	b.screen = scr
	return scr
}

// moveTo re-homes the basis, which the caller owns, in arena a.
func (b *Basis) moveTo(a *BasisArena) {
	for k, blk := range b.blocks {
		b.blocks[k] = a.take(len(blk))
		copy(b.blocks[k], blk)
	}
	b.arena = a
}

// replayLane is one (plan, sample) in flight through the kernel: the
// plan's assignment, a scratch of its own (the slice headers of b.assign
// and sc, held directly so the step loop reaches them in one load), the
// latency/cost chains and step cursor of the sample, and where the
// finished sample goes.
type replayLane struct {
	assign    []int
	buf       []float64 // sc.buf: start, ready, kwh, gb back to back
	lat, cost float64
	si, hi    int32 // steps [si, hi) of the sample are still to run
	b         *Basis
	sc        *replayScratch
	blk       []float64 // the basis block being filled
	j         int       // the sample's index within the block
}

// commit stores the finished sample: latency, cost, and the dense
// accumulators compacted to the plan's slots — which zeroes every entry
// the sample touched for the next one.
func (ln *replayLane) commit() {
	b, blk, j := ln.b, ln.blk, ln.j
	blk[j], blk[BatchSize+j] = ln.lat, ln.cost
	w := b.width()
	rec := blk[2*BatchSize+j*w : 2*BatchSize+(j+1)*w]
	kwh, gb := ln.sc.kwh, ln.sc.gb
	for k, r := range b.regs {
		rec[k] = kwh[r]
		kwh[r] = 0
	}
	rec = rec[len(b.regs):]
	for k, p := range b.pairs {
		rec[k] = gb[p]
		gb[p] = 0
	}
}

// lanesInFlight is how many independent (plan, sample) lanes the kernel
// keeps in flight: a sample's latency and cost chains are serial float
// dependencies, and the loop is bound by their latency, not by issue
// width — overlapping a few independent chains recovers the stalled
// pipeline. A sweep of many plans has its lanes already; one or two plans
// run that many consecutive samples of each side by side.
const lanesInFlight = 4

// replayBatch appends samples [i0, i0+BatchSize) of the solve's tape to
// every basis — all of which must hold exactly i0 samples and be owned by
// the caller. lanes is scratch: its bases are read from lanes[:k] (k =
// len(lanes)) and the slice is regrown to k × samples-in-flight entries.
func (s *Snapshot) replayBatch(lanes []replayLane, i0 int) ([]replayLane, error) {
	td := s.tape.ensure(s, i0+BatchSize)
	k := len(lanes)
	per := 1 // consecutive samples of one plan in flight; divides BatchSize
	for per*k < lanesInFlight {
		per *= 2
	}
	for t := k; t < per*k; t++ {
		lanes = append(lanes, replayLane{b: lanes[t%k].b})
	}
	for t := range lanes {
		ln := &lanes[t]
		sc := s.getScratch()
		ln.sc, ln.assign, ln.buf = sc, ln.b.assign, sc.buf
		if t < k {
			ln.blk = ln.b.arena.take(BatchSize * (2 + ln.b.width()))
		} else {
			ln.blk = lanes[t%k].blk
		}
	}
	var err error
	for i := i0; i < i0+BatchSize && err == nil; i += per {
		for t := range lanes {
			lanes[t].j = i - i0 + t/k
		}
		if err = s.replaySamples(td, i0, lanes); err == nil {
			for t := range lanes {
				lanes[t].commit()
			}
		}
	}
	for t := range lanes {
		ln := &lanes[t]
		if err != nil {
			clear(ln.sc.kwh)
			clear(ln.sc.gb)
		} else if t < k {
			ln.b.blocks = append(ln.b.blocks, ln.blk)
			ln.b.n += BatchSize
		}
		s.putScratch(ln.sc)
	}
	if err != nil {
		return lanes, err
	}
	replayed := int64(k) * BatchSize
	s.Sweeps.Replays.Add(int64(k))
	s.tel.basisReplays.Add(int64(k))
	s.tel.samples.Add(replayed)
	s.tel.tapeReplays.Add(replayed)
	return lanes, nil
}

// replaySamples is the one step kernel: it replays, for every lane, tape
// sample i0+lane.j under the lane's plan, and knows no hour. Each lane
// walks its own sample's steps; the lanes advance one step each per round,
// so their independent dependency chains interleave, and since no result
// of one lane feeds another, per-sample arithmetic order — and therefore
// every bit — is that of a lane run alone. The body is closure-free —
// transfer latency and egress are inlined against hoisted tables — and
// every latency and cost operation happens in the reference order; where
// the reference adds intensity-weighted carbon, the lane adds the energy
// to kwh[region] and the gigabytes to gb[pair]. An exec-duration lookup
// that failed at Compile surfaces at the step that reads it.
func (s *Snapshot) replaySamples(td *tapeData, i0 int, lanes []replayLane) error {
	home := s.home
	nR := s.nR
	entry := s.start
	txBase, txPerByte := s.txBase, s.txPerByte
	egress := s.egressPerGB
	msgOverhead := s.msgOverhead
	snsHome := s.snsUSD[home]
	kvAccess := s.kvAccess
	dynRead, dynWrite := s.dynReadUSD, s.dynWriteUSD
	snsUSD := s.snsUSD
	hasErr := s.anyExecErr
	// Column headers hoisted into locals so the loop indexes registers
	// instead of re-loading slice headers through the *tapeData pointer.
	nodeC, flagsC, stagedC, outC, drcC, aux9C, out9C := td.node, td.flags, td.staged, td.out, td.drc, td.aux9, td.out9
	edgeOffC, toC, kindC, bytesC, skipOffC, e9C := td.edgeOff, td.to, td.kind, td.bytes, td.skipOff, td.e9
	skipS := td.skipSyncs

	// Entry: the DP fetch at home and the routed entry payload. The transfer
	// term is parenthesized so it is summed before being added to the
	// access+overhead prefix, as the reference's helper call.
	entryBase := kvAccess[home] + msgOverhead
	// Offsets of the ready, kwh and gb vectors in a lane's buf.
	oReady := s.nodes.Len()
	oKwh := 2 * oReady
	oGb := oKwh + nR
	live := 0
	for k := range lanes {
		ln := &lanes[k]
		i := i0 + ln.j
		ln.sc.reset()
		entryBytes := td.entry[i]
		he := home*nR + ln.assign[entry]
		var cost float64
		cost += dynRead
		cost += snsHome
		if entryBytes > 0 {
			q := td.entry9[i]
			ln.buf[oGb+he] += q
			cost += q * egress[he]
		}
		eb := entryBytes
		if eb < 0 {
			eb = 0
		}
		ln.buf[entry] = entryBase + (txBase[he] + eb*txPerByte[he])
		ln.lat, ln.cost = 0, cost
		ln.si, ln.hi = td.stepOff[i], td.stepOff[i+1]
		if ln.si < ln.hi {
			live++
		}
	}

	for live > 0 {
		for k := range lanes {
			ln := &lanes[k]
			si := ln.si
			if si == ln.hi {
				continue
			}
			assign, buf := ln.assign, ln.buf
			lat, cost := ln.lat, ln.cost
			n := int(nodeC[si])
			flags := flagsC[si]
			r := assign[n]
			var startN float64
			if flags&stepSync != 0 {
				staged := stagedC[si]
				hr := home*nR + r
				cost += snsHome
				buf[oGb+hr] += controlBytes / 1e9
				cost += controlBytes / 1e9 * egress[hr]
				arrive := buf[oReady+n] + msgOverhead + (txBase[hr] + controlBytes*txPerByte[hr])
				ld := staged
				if ld < 0 {
					ld = 0
				}
				load := kvAccess[r] + (txBase[hr] + ld*txPerByte[hr])
				cost += dynRead
				if staged > 0 {
					q := aux9C[si]
					buf[oGb+hr] += q
					cost += q * egress[hr]
				}
				startN = arrive + load
			} else {
				startN = buf[n]
			}
			if hasErr {
				if err := s.execErr[n*nR+r]; err != nil {
					return err
				}
			}
			base := (int(si)*nR + r) * 3
			finish := startN + drcC[base]
			if finish > lat {
				lat = finish
			}
			buf[oKwh+r] += drcC[base+1]
			cost += drcC[base+2]
			if flags&stepOutput != 0 {
				if outC[si] > 0 {
					q := out9C[si]
					rh := r*nR + home
					buf[oGb+rh] += q
					cost += q * egress[rh]
				}
			} else {
				eHi := edgeOffC[si+1]
				for ei := edgeOffC[si]; ei < eHi; ei++ {
					to := int(toC[ei])
					switch kindC[ei] {
					case tapeEdgeSkip:
						for sk := skipOffC[ei]; sk < skipOffC[ei+1]; sk++ {
							sn := int(skipS[sk])
							if finish > buf[oReady+sn] {
								buf[oReady+sn] = finish
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
							buf[oGb+rh] += q
							cost += q * egress[rh]
						}
						rdy := finish + (txBase[rh] + tb*txPerByte[rh]) + kvAccess[r]
						if rdy > buf[oReady+to] {
							buf[oReady+to] = rdy
						}
					case tapeEdgeDirect:
						cost += snsUSD[r]
						total := bytesC[ei] + controlBytes
						rt := r*nR + assign[to]
						if total > 0 {
							q := e9C[ei]
							buf[oGb+rt] += q
							cost += q * egress[rt]
						}
						tb := total
						if tb < 0 {
							tb = 0
						}
						arrive := finish + msgOverhead + (txBase[rt] + tb*txPerByte[rt])
						if arrive > buf[to] {
							buf[to] = arrive
						}
					}
				}
			}
			ln.lat, ln.cost = lat, cost
			si++
			ln.si = si
			if si == ln.hi {
				live--
			}
		}
	}
	return nil
}
