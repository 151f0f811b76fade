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
// the cost, and kwh/gb accumulated in the plan's static slots — the regions
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
// replays a batch node by node (replayPlan; ≈18–26 µs a plan on
// Text2Speech with its pricing, BenchmarkReplayBasis), later hours apply
// their own §7.1 stopping rule to the cached series (≈3.2 µs per hour), and
// the basis grows by a batch only when some hour needs a boundary no
// earlier hour reached.

import (
	"math"
	"slices"
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
// goes to series[i] and, in sample order, to the running carbon sum, which
// priceBlock returns. Each sample is
// priceSample's two chains — c[j]·x[j]·PUE over the region slots, c[j]·x[j]
// over the pair slots, j ascending — so every bit is the per-sample
// loop's; four samples' chains are in flight at once, since a chain is
// bound by add latency.
func priceBlock(series, recs, coef []float64, nRegs int, sum float64) float64 {
	// Capping coef at w and cutting each record to w lets the compiler prove
	// every index in the two chain loops in bounds.
	w := len(coef)
	coef = coef[:w:w]
	cr := coef[:nRegs]
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
		sum = sum + c0 + c1 + c2 + c3
	}
	return sum
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
// (their prefixes are the means), whether both CVs pass, once some hour
// stopped there both p95s, and once some hour's prune check wanted the
// carbon floor the block's per-slot record sums (slotSums).
type boundStat struct {
	latSum, costSum float64
	sharedOK        bool
	haveP95         bool
	latP95, costP95 float64
	haveSlot        bool
	slotSum         []float64 // nil when a record is negative or not finite
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

// slotSums returns block k's per-slot record sums S_j = Σ_i x_ij, computed
// on first use into the basis arena, or nil when some record is negative
// or not finite — the carbon floor (carbonFloor) then does not hold. The
// caller holds the basis and has taken statAt(k).
func (b *Basis) slotSums(k int) []float64 {
	st := &b.stat[k]
	if st.haveSlot {
		return st.slotSum
	}
	st.haveSlot = true
	w := b.width()
	sum := b.arena.take(w)
	clear(sum)
	// A float is non-negative and finite exactly when its bits, read as an
	// unsigned integer, are below +Inf's: the sign bit and NaN lie above.
	var top uint64
	recs := b.blocks[k][2*BatchSize:]
	for i := 0; i+w <= len(recs); i += w {
		rec := recs[i : i+w : i+w]
		sum := sum[:len(rec)]
		for j, x := range rec {
			sum[j] += x
			top = max(top, math.Float64bits(x))
		}
	}
	if top >= math.Float64bits(math.Inf(1)) {
		return nil
	}
	st.slotSum = sum
	return sum
}

// carbonFloor floors the running carbon sum priceBlock(series, recs, coef,
// nRegs, sum) returns, given the block's slot sums (slotSums): sum +
// Σ_j coef_j·S_j, PUE on the region slots, less screenTol relative. With
// every coefficient, record and sum non-negative and finite, both sides are
// non-negative sums of the same real terms, each within (BatchSize+w+4)·ε
// ≈ 5e-14 relative of their exact total — far inside screenTol — so the
// floor is below; products that underflow lose at most 2⁻¹⁰⁷⁵ apiece, which
// the absolute 2⁻¹⁰⁰⁰ covers. ok is false where the floor does not hold: a
// negative or non-finite coefficient or sum, no slot sums, or an overflow.
func carbonFloor(slotSum, coef []float64, nRegs int, sum float64) (floor float64, ok bool) {
	if slotSum == nil || !(sum >= 0) {
		return 0, false
	}
	x := sum
	for j, c := range coef {
		if !(c >= 0 && c <= math.MaxFloat64) {
			return 0, false
		}
		t := c * slotSum[j]
		if j < nRegs {
			t *= carbon.PUE
		}
		x += t
	}
	if !(x <= math.MaxFloat64) {
		return 0, false
	}
	return x*(1-screenTol) - 0x1p-1000, true
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

// moveTo re-homes the basis, which the caller owns, in arena a; slot sums
// are dropped, to be taken again on first use.
func (b *Basis) moveTo(a *BasisArena) {
	for k, blk := range b.blocks {
		b.blocks[k] = a.take(len(blk))
		copy(b.blocks[k], blk)
	}
	for k := range b.stat {
		b.stat[k].haveSlot, b.stat[k].slotSum = false, nil
	}
	b.arena = a
}

// batchScratch is one replayBatch call's per-sample state: the start and
// ready times by sample of each node the batch runs — node n's at
// [slot[n]·BatchSize, (slot[n]+1)·BatchSize), slots numbered in node order
// over the nodes with samples — and the finish times of the node being
// replayed. A node no sample runs is never read or written, so the vectors
// grow with the nodes a batch runs, not with the DAG.
type batchScratch struct {
	slot         []int32
	start, ready []float64
	finish       vec
}

func newBatchScratch(n int) *batchScratch { return &batchScratch{slot: make([]int32, n)} }

// regSlot and pairSlot return where region r's and region pair p's slot
// sits in a sample record; the static slots hold every one replay reaches
// (TestStaticSlotsCoverDenseAccumulation).
func (b *Basis) regSlot(r int) int {
	j, _ := slices.BinarySearch(b.regs, int32(r))
	return j
}

func (b *Basis) pairSlot(p int) int {
	j, _ := slices.BinarySearch(b.pairs, int32(p))
	return len(b.regs) + j
}

// replayBatch appends samples [i0, i0+BatchSize) of the solve's tape to
// every basis — all of which must hold exactly i0 samples and be owned by
// the caller. A deferred exec error fails the call before any basis grows:
// of the plans that meet one, the first in order returns the error the
// reference sampler raises for it (execErrIn).
func (s *Snapshot) replayBatch(bases []*Basis, i0 int) error {
	td := s.tape.ensure(s, i0+BatchSize)
	if s.anyExecErr {
		for _, b := range bases {
			if err := s.execErrIn(td, i0, b.assign); err != nil {
				return err
			}
		}
	}
	sc := s.batchPool.Get().(*batchScratch)
	for _, b := range bases {
		blk := b.arena.take(BatchSize * (2 + b.width()))
		s.replayPlan(td, i0, b, blk, sc)
		b.blocks = append(b.blocks, blk)
		b.n += BatchSize
	}
	s.batchPool.Put(sc)
	k := int64(len(bases))
	s.Sweeps.Replays.Add(k)
	s.tel.basisReplays.Add(k)
	s.tel.samples.Add(k * BatchSize)
	s.tel.tapeReplays.Add(k * BatchSize)
	return nil
}

// execErrIn returns the deferred exec error the reference meets first
// sampling [i0, i0+BatchSize) under assign — at the first sample's first
// step whose (node, region) has no execution data — or nil. The tape keeps
// steps sample by sample in step order, so that is the batch's first such
// step.
func (s *Snapshot) execErrIn(td *tapeData, i0 int, assign []int) error {
	for _, n := range td.node[td.stepOff[i0]:td.stepOff[i0+BatchSize]] {
		if err := s.execErr[int(n)*s.nR+assign[n]]; err != nil {
			return err
		}
	}
	return nil
}

// replayPlan is the one step kernel: it replays tape samples [i0,
// i0+BatchSize) under b's plan into blk, the block's latencies, costs and
// slot records, and knows no hour. It walks the nodes in interned order —
// the order a sample runs its steps in — and, per node, the batch's samples
// that executed it (the tape's node index), so the (node, region) and
// (edge, region pair) coefficients and slot indices are read once per node,
// not once per sample. Per-sample state lives in BatchSize-wide vectors; a
// sample's edges only feed later nodes, so each sample still runs its own
// operations in its own step order, and only independent samples
// interleave: every bit is that of the sample replayed alone. Every latency
// and cost operation happens in the reference order (Snapshot.sampleOnce);
// where the reference accumulates energy by region and gigabytes by region
// pair, the kernel adds them to the sample's record at the slot. An
// exec-duration lookup that failed at Compile never gets here (execErrIn).
func (s *Snapshot) replayPlan(td *tapeData, i0 int, b *Basis, blk []float64, sc *batchScratch) {
	const bs = BatchSize
	nN, nR, home := s.nodes.Len(), s.nR, s.home
	assign := b.assign
	clear(blk)
	k := i0 / bs
	idx := td.nodeOff[k*nN : (k+1)*nN+1]
	m := 0
	for n := range nN {
		if idx[n] < idx[n+1] {
			sc.slot[n] = int32(m)
			m++
		}
	}
	if len(sc.start) < m*bs {
		sc.start, sc.ready = make([]float64, m*bs), make([]float64, m*bs)
	}
	clear(sc.start[:m*bs])
	clear(sc.ready[:m*bs])
	p := nodePass{
		s: s, td: td, w: b.width(),
		lat: (*vec)(blk), cost: (*vec)(blk[bs:]), recs: blk[2*bs:], finish: &sc.finish,
		slot: sc.slot, start: sc.start, ready: sc.ready,
	}

	// Entry: the DP fetch at home and the routed entry payload. The transfer
	// term is parenthesized so it is summed before being added to the
	// access+overhead prefix, as the reference's helper call.
	entry := s.start
	rt := s.route(b, home*nR+assign[entry])
	entryBase := s.kvAccess[home] + s.msgOverhead
	var c0 float64
	c0 += s.dynReadUSD
	c0 += s.snsUSD[home]
	entry9, cost, recs, w, st := td.entry9[i0:i0+bs], p.cost, p.recs, p.w, p.startOf(entry)
	for j, eb := range td.entry[i0 : i0+bs] {
		c := c0
		if eb > 0 {
			q := entry9[j]
			recs[j*w+rt.slot] += q
			c += q * rt.egress
		}
		if eb < 0 {
			eb = 0
		}
		cost[j] = c
		st[j] = entryBase + (rt.txBase + eb*rt.txPerByte)
	}

	for n := range nN {
		lo, hi := idx[n], idx[n+1]
		if lo == hi {
			continue
		}
		p.smp, p.steps = td.nodeSample[lo:hi], td.nodeStep[lo:hi]
		r := assign[n]
		if s.isSync[n] {
			p.sync(n, s.route(b, home*nR+r), s.kvAccess[r])
		}
		p.exec(n, r, b.regSlot(r))
		out := s.outEdges[n]
		if len(out) == 0 {
			if s.output[n] != nil {
				p.output(s.route(b, r*nR+home))
			}
			continue
		}
		for e, edge := range out {
			if edge.toSync { // staged at home
				p.stage(e, edge.to, s.route(b, r*nR+home), s.kvAccess[r])
			} else {
				p.direct(e, edge.to, s.route(b, r*nR+assign[edge.to]), s.snsUSD[r])
			}
		}
	}
}

// nodePass is what the passes of replayPlan share: the snapshot, the tape,
// the node's samples (their index in the batch) and their steps there, the
// block's per-sample vectors and slot records (w slots a record), each
// sample's finish at the node, and the start and ready vectors of the
// nodes the batch runs (batchScratch). Each pass is a short loop of
// independent per-sample chains, kept out of line so its few live values
// stay in registers.
type nodePass struct {
	s                 *Snapshot
	td                *tapeData
	smp, steps        []int32
	lat, cost, finish *vec
	recs              []float64
	w                 int
	slot              []int32
	start, ready      []float64
}

// vec is one value per sample of a batch.
type vec = [BatchSize]float64

func (p *nodePass) startOf(n int) *vec { return (*vec)(p.start[int(p.slot[n])*BatchSize:]) }

func (p *nodePass) readyOf(n int) *vec { return (*vec)(p.ready[int(p.slot[n])*BatchSize:]) }

// route is one region pair's coefficients as a replay reads them: its
// slot in the plan's records, and its egress price and transfer terms.
type route struct {
	slot                      int
	egress, txBase, txPerByte float64
}

func (s *Snapshot) route(b *Basis, pair int) route {
	return route{b.pairSlot(pair), s.egressPerGB[pair], s.txBase[pair], s.txPerByte[pair]}
}

// sync runs fired sync node n's prefix: the completing predecessor's invoke
// message from home over rt, then the load of its staged data from home;
// their sum is the node's start.
func (p *nodePass) sync(n int, rt route, kv float64) {
	smp, steps, cost, recs, w := p.smp, p.steps, p.cost, p.recs, p.w
	ready, start := p.readyOf(n), p.startOf(n)
	stagedC, aux9C := p.td.staged, p.td.aux9
	s := p.s
	snsHome, msgOverhead, dynRead := s.snsUSD[s.home], s.msgOverhead, s.dynReadUSD
	ctlCost := controlBytes / 1e9 * rt.egress
	ctlTx := rt.txBase + controlBytes*rt.txPerByte
	for x, j := range smp {
		si := steps[x]
		rec := recs[int(j)*w:]
		c := cost[j]
		c += snsHome
		rec[rt.slot] += controlBytes / 1e9
		c += ctlCost
		arrive := ready[j] + msgOverhead + ctlTx
		staged := stagedC[si]
		ld := staged
		if ld < 0 {
			ld = 0
		}
		load := kv + (rt.txBase + ld*rt.txPerByte)
		c += dynRead
		if staged > 0 {
			q := aux9C[si]
			rec[rt.slot] += q
			c += q * rt.egress
		}
		cost[j] = c
		start[j] = arrive + load
	}
}

// exec runs node n in region r: finish, the latency's running maximum, the
// energy at region slot slot, and the cost.
func (p *nodePass) exec(n, r, slot int) {
	smp, steps, lat, cost, recs, finish, w := p.smp, p.steps, p.lat, p.cost, p.recs, p.finish, p.w
	start, drc, nR := p.startOf(n), p.td.drc, p.s.nR
	for x, j := range smp {
		d := (*[3]float64)(drc[(int(steps[x])*nR+r)*3:])
		f := start[j] + d[0]
		if f > lat[j] {
			lat[j] = f
		}
		recs[int(j)*w+slot] += d[1]
		cost[j] += d[2]
		finish[j] = f
	}
}

// output runs a terminal node's write-back home over rt.
func (p *nodePass) output(rt route) {
	smp, steps, cost, recs, w := p.smp, p.steps, p.cost, p.recs, p.w
	outC, out9C := p.td.out, p.td.out9
	for x, j := range smp {
		if si := steps[x]; outC[si] > 0 {
			q := out9C[si]
			recs[int(j)*w+rt.slot] += q
			cost[j] += q * rt.egress
		}
	}
}

// skip is edge ei untaken for sample j: every sync node its skip
// propagation reached gets the sample's finish as a readiness floor, and
// the annotation is written.
func (p *nodePass) skip(ei, j int32) {
	td, fin := p.td, p.finish[j]
	for sk := td.skipOff[ei]; sk < td.skipOff[ei+1]; sk++ {
		at := int(p.slot[td.skipSyncs[sk]])*BatchSize + int(j)
		if fin > p.ready[at] {
			p.ready[at] = fin
		}
	}
	p.cost[j] += p.s.dynWriteUSD // skip annotation
}

// stage runs the node's e-th out-edge, into sync node to: a taken edge
// stages the payload home over rt and annotates it (two writes), readying
// the sync node once the data is stored (kv).
func (p *nodePass) stage(e, to int, rt route, kv float64) {
	smp, steps, cost, recs, finish, w := p.smp, p.steps, p.cost, p.recs, p.finish, p.w
	edgeOffC, kindC, bytesC, e9C := p.td.edgeOff, p.td.kind, p.td.bytes, p.td.e9
	ready, dynWrite := p.readyOf(to), p.s.dynWriteUSD
	for x, j := range smp {
		ei := edgeOffC[steps[x]] + int32(e)
		if kindC[ei] == tapeEdgeSkip {
			p.skip(ei, j)
			continue
		}
		bb := bytesC[ei]
		c := cost[j]
		c += dynWrite
		c += dynWrite
		tb := bb
		if tb < 0 {
			tb = 0
		}
		if bb > 0 {
			q := e9C[ei]
			recs[int(j)*w+rt.slot] += q
			c += q * rt.egress
		}
		cost[j] = c
		rdy := finish[j] + (rt.txBase + tb*rt.txPerByte) + kv
		if rdy > ready[j] {
			ready[j] = rdy
		}
	}
}

// direct runs the node's e-th out-edge, a pub/sub edge to node to: a taken
// edge publishes the payload and control envelope over rt at the price of
// one message (sns), and the arrival floors the successor's start.
func (p *nodePass) direct(e, to int, rt route, sns float64) {
	smp, steps, cost, recs, finish, w := p.smp, p.steps, p.cost, p.recs, p.finish, p.w
	edgeOffC, kindC, bytesC, e9C := p.td.edgeOff, p.td.kind, p.td.bytes, p.td.e9
	start, msgOverhead := p.startOf(to), p.s.msgOverhead
	for x, j := range smp {
		ei := edgeOffC[steps[x]] + int32(e)
		if kindC[ei] == tapeEdgeSkip {
			p.skip(ei, j)
			continue
		}
		c := cost[j]
		c += sns
		total := bytesC[ei] + controlBytes
		if total > 0 {
			q := e9C[ei]
			recs[int(j)*w+rt.slot] += q
			c += q * rt.egress
		}
		cost[j] = c
		tb := total
		if tb < 0 {
			tb = 0
		}
		arrive := finish[j] + msgOverhead + (rt.txBase + tb*rt.txPerByte)
		if arrive > start[j] {
			start[j] = arrive
		}
	}
}
