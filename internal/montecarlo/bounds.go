package montecarlo

// Exact pruning bounds: plan-independent per-sample metric floors.
//
// A sweep (batch.go) abandons a candidate plan mid-way once
// no completion of its replay can bring its final mean metric below the
// solver-supplied threshold. That requires, for every compiled sample, a
// lower bound on the metric contribution the sample makes under *any*
// assignment. Because the tape fixes the event skeleton, such a bound is
// computable once per (sample, hour) — carbon floors fold the hour's
// intensities, so the columns live in a per-hour cache (boundCache), not
// on the shared tape — by replaying the sample with every region-dependent
// coefficient replaced by its minimum over the choices a plan could make:
//
//   - per (step, region) terms — the duration quantile, the
//     intensity-weighted energy product, and the execution cost — take
//     their per-step minimum over regions (stepFloor);
//   - transfer/egress/transmission-factor coefficients take the minimum
//     over the region pairs the event can touch (home-row for entry and
//     sync loads, home-column for staging and write-back, all pairs for
//     direct edges);
//   - KV access and SNS publish take the minimum over regions.
//
// Every operation in the replay — addition, multiplication by a
// non-negative operand, and max — is monotone in each input, and IEEE-754
// round-to-nearest is itself monotone, so the bound replay's float result
// is ≤ the real replay's float result for every plan, sample by sample:
// the latency and cost bounds are exact at the float level, not just in
// real arithmetic. The carbon bound is a sum over events of
// min-coefficient × quantity, while a replayed sample's carbon is priced
// from per-region energy and per-pair gigabyte totals (basis.go): term by
// term the floor is below in real arithmetic, and the two summation orders
// differ by ≤ events·ε relative. Per-sample bounds are accumulated into
// prefix-sum columns (hourBounds.preLat/preCost/preCarb) so the
// remaining-sample floor of any span is two loads and a subtraction at
// prune-check time. The slack the consumer must absorb is that summation
// order plus prefix-sum reassociation (≤ n·ε relative) — ≈1e-13 together,
// which the solver's 1e-9 threshold margin covers by four orders of
// magnitude.
//
// Columns are baked only when a prune check asks for them, and only as far
// as it looks ahead. Bounds are only valid as *floors of a mean* when
// per-sample values are non-negative: samples past the look-ahead horizon
// contribute an implicit 0 to the floor (they are unknown at prune time).
// If any baked bound ever goes negative — possible only with pathological
// negative duration or transfer inputs — ok latches false and pruning is
// disabled for that hour; results are unaffected because pruning is an
// optimization, never a semantic change.

import (
	"sync"
	"sync/atomic"

	"caribou/internal/carbon"
)

// boundTables holds the snapshot-level coefficient minima the bound
// replay substitutes for region-dependent lookups. Baked once at Compile;
// rf minima are per hour because transmission factors fold the hour's
// intensities.
type boundTables struct {
	ok                                             bool
	txBaseHomeRow, txPerByteHomeRow, egressHomeRow float64
	txBaseHomeCol, txPerByteHomeCol, egressHomeCol float64
	txBaseAll, txPerByteAll, egressAll             float64
	kv, sns                                        float64
	rfHomeRow, rfHomeCol, rfAll                    []float64 // [hour]
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// bakeBoundTables fills the snapshot's coefficient minima. Skipped when a
// deferred exec error exists: such a snapshot never prunes, which changes
// no result.
func (s *Snapshot) bakeBoundTables() {
	if s.anyExecErr {
		return
	}
	nR, home := s.nR, s.home
	rowMin := func(tab []float64, fixedFrom int) float64 {
		m := tab[fixedFrom*nR]
		for r := 1; r < nR; r++ {
			if v := tab[fixedFrom*nR+r]; v < m {
				m = v
			}
		}
		return m
	}
	colMin := func(tab []float64, fixedTo int) float64 {
		m := tab[fixedTo]
		for r := 1; r < nR; r++ {
			if v := tab[r*nR+fixedTo]; v < m {
				m = v
			}
		}
		return m
	}
	s.bnd.txBaseHomeRow = rowMin(s.txBase, home)
	s.bnd.txPerByteHomeRow = rowMin(s.txPerByte, home)
	s.bnd.egressHomeRow = rowMin(s.egressPerGB, home)
	s.bnd.txBaseHomeCol = colMin(s.txBase, home)
	s.bnd.txPerByteHomeCol = colMin(s.txPerByte, home)
	s.bnd.egressHomeCol = colMin(s.egressPerGB, home)
	s.bnd.txBaseAll = minOf(s.txBase)
	s.bnd.txPerByteAll = minOf(s.txPerByte)
	s.bnd.egressAll = minOf(s.egressPerGB)
	s.bnd.kv = minOf(s.kvAccess)
	s.bnd.sns = minOf(s.snsUSD)
	s.bnd.rfHomeRow = make([]float64, len(s.hours))
	s.bnd.rfHomeCol = make([]float64, len(s.hours))
	s.bnd.rfAll = make([]float64, len(s.hours))
	for h := range s.hours {
		rf := s.txRF[h]
		s.bnd.rfHomeRow[h] = rowMin(rf, home)
		s.bnd.rfHomeCol[h] = colMin(rf, home)
		s.bnd.rfAll[h] = minOf(rf)
	}
	s.bnd.ok = true
}

// hourBounds holds one hour's pruning-bound columns over the first n
// samples of the shared tape: preLat/preCost/preCarb are per-sample
// metric-floor prefix sums (len n+1) — all a prune check reads. ok latches
// false — disabling pruning for the hour, never changing a result — when a
// per-sample floor goes negative; the columns then stop growing. Immutable
// once published; extendBounds builds a longer copy.
type hourBounds struct {
	n                        int
	preLat, preCost, preCarb []float64
	ok                       bool
}

// covers reports whether b answers a prune check looking n samples ahead.
func (b *hourBounds) covers(n int) bool { return b != nil && (b.n >= n || !b.ok) }

// boundCache is one hour's hourBounds, extended only as far as that hour's
// prune checks have looked ahead — so its length never depends on what
// other hours asked for. The mutex serializes extensions; readers load the
// latest published columns through the atomic pointer.
type boundCache struct {
	mu   sync.Mutex
	data atomic.Pointer[hourBounds]
}

// ensure returns hour h's bound columns over at least the first n samples
// (capped at MaxSamples), extending the shared tape and then the columns
// as needed. The fast path is a single atomic load.
func (c *boundCache) ensure(s *Snapshot, h, n int) *hourBounds {
	n = min(n, MaxSamples)
	if b := c.data.Load(); b.covers(n) {
		return b
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.data.Load()
	if old.covers(n) {
		return old
	}
	b := s.extendBounds(old, s.tape.ensure(s, n), h, n)
	c.data.Store(b)
	return b
}

// extendBounds returns hour h's bound columns over td's first n samples:
// old's columns (nil before the hour's first) copied, the new span baked
// with the hour's intensities. All columns are carved from one arena block.
func (s *Snapshot) extendBounds(old *hourBounds, td *tapeData, h, n int) *hourBounds {
	if old == nil {
		old = &hourBounds{ok: true}
	}
	arena := make([]float64, 3*(n+1))
	b := &hourBounds{n: n, ok: true}
	b.preLat, arena = arena[:n+1:n+1], arena[n+1:]
	b.preCost, b.preCarb = arena[:n+1:n+1], arena[n+1:]
	copy(b.preLat, old.preLat)
	copy(b.preCost, old.preCost)
	copy(b.preCarb, old.preCarb)
	s.bakeBoundSamples(td, b, h, old.n, n)
	s.tel.boundBakeSamples.Add(int64(n - old.n))
	return b
}

// stepFloor returns one step's bound triple — duration, energy
// contribution, exec cost — from its drc row: the minimum over regions of
// each entry, with the energy intermediate folded against the hour's
// intensities and PUE in the replay's exact expression shape
// (inten[r]*drc*PUE).
func stepFloor(drc, inten []float64) (minD, minE, minC float64) {
	minD = drc[0]
	minE = inten[0] * drc[1] * carbon.PUE
	minC = drc[2]
	for r := 1; r < len(inten); r++ {
		if d := drc[r*3]; d < minD {
			minD = d
		}
		if e := inten[r] * drc[r*3+1] * carbon.PUE; e < minE {
			minE = e
		}
		if cc := drc[r*3+2]; cc < minC {
			minC = cc
		}
	}
	return minD, minE, minC
}

// boundReplay replays recorded sample i with every region-dependent
// coefficient at its minimum, returning per-sample floors for the three
// convergence metrics. The control flow mirrors the step kernel
// (replayPlan) expression for expression, with the carbon of each event
// added where the kernel adds its energy or gigabytes, so float
// monotonicity applies term-wise to latency and cost and the carbon floor
// is a per-event sum — equal, up to summation order, to a floor on the
// per-sample pricing the kernel's output goes through (basis.go).
func (s *Snapshot) boundReplay(c *tapeData, i, h int, sc *replayScratch) (lat, cost, carb float64) {
	sc.reset()
	var smp sample
	b := &s.bnd
	nR3, inten := s.nR*3, s.intensity[h]
	rfHR, rfHC, rfAll := b.rfHomeRow[h], b.rfHomeCol[h], b.rfAll[h]
	msgOverhead := s.msgOverhead
	snsHome := s.snsUSD[s.home]
	dynRead, dynWrite := s.dynReadUSD, s.dynWriteUSD

	entryBytes := c.entry[i]
	smp.cost += dynRead
	smp.cost += snsHome
	if entryBytes > 0 {
		q := c.entry9[i]
		smp.txCarbon += rfHR * q
		smp.cost += q * b.egressHomeRow
	}
	eb := entryBytes
	if eb < 0 {
		eb = 0
	}
	sc.start[s.start] = s.kvAccess[s.home] + msgOverhead + (b.txBaseHomeRow + eb*b.txPerByteHomeRow)

	for si := c.stepOff[i]; si < c.stepOff[i+1]; si++ {
		n := int(c.node[si])
		flags := c.flags[si]
		var startN float64
		if flags&stepSync != 0 {
			staged := c.staged[si]
			smp.cost += snsHome
			smp.txCarbon += rfHR * (controlBytes / 1e9)
			smp.cost += controlBytes / 1e9 * b.egressHomeRow
			arrive := sc.ready[n] + msgOverhead + (b.txBaseHomeRow + controlBytes*b.txPerByteHomeRow)
			ld := staged
			if ld < 0 {
				ld = 0
			}
			load := b.kv + (b.txBaseHomeRow + ld*b.txPerByteHomeRow)
			smp.cost += dynRead
			if staged > 0 {
				q := c.aux9[si]
				smp.txCarbon += rfHR * q
				smp.cost += q * b.egressHomeRow
			}
			startN = arrive + load
		} else {
			startN = sc.start[n]
		}

		minD, minE, minC := stepFloor(c.drc[int(si)*nR3:(int(si)+1)*nR3], inten)
		finish := startN + minD
		if finish > smp.latency {
			smp.latency = finish
		}
		smp.execCarbon += minE
		smp.cost += minC

		if flags&stepOutput != 0 {
			if c.out[si] > 0 {
				q := c.out9[si]
				smp.txCarbon += rfHC * q
				smp.cost += q * b.egressHomeCol
			}
			continue
		}
		eHi := c.edgeOff[si+1]
		for ei := c.edgeOff[si]; ei < eHi; ei++ {
			to := int(c.to[ei])
			switch c.kind[ei] {
			case tapeEdgeSkip:
				for k := c.skipOff[ei]; k < c.skipOff[ei+1]; k++ {
					sn := int(c.skipSyncs[k])
					if finish > sc.ready[sn] {
						sc.ready[sn] = finish
					}
				}
				smp.cost += dynWrite
			case tapeEdgeStage:
				bb := c.bytes[ei]
				smp.cost += dynWrite
				smp.cost += dynWrite
				tb := bb
				if tb < 0 {
					tb = 0
				}
				if bb > 0 {
					q := c.e9[ei]
					smp.txCarbon += rfHC * q
					smp.cost += q * b.egressHomeCol
				}
				ready := finish + (b.txBaseHomeCol + tb*b.txPerByteHomeCol) + b.kv
				if ready > sc.ready[to] {
					sc.ready[to] = ready
				}
			case tapeEdgeDirect:
				smp.cost += b.sns
				total := c.bytes[ei] + controlBytes
				if total > 0 {
					q := c.e9[ei]
					smp.txCarbon += rfAll * q
					smp.cost += q * b.egressAll
				}
				tb := total
				if tb < 0 {
					tb = 0
				}
				arrive := finish + msgOverhead + (b.txBaseAll + tb*b.txPerByteAll)
				if arrive > sc.start[to] {
					sc.start[to] = arrive
				}
			}
		}
	}
	return smp.latency, smp.cost, smp.execCarbon + smp.txCarbon
}

// bakeBoundSamples extends the metric prefix-sum columns over samples
// [oldSamp, nSamp), latching ok false if any per-sample floor is
// negative (see package comment above).
func (s *Snapshot) bakeBoundSamples(ref *tapeData, b *hourBounds, h, oldSamp, nSamp int) {
	sc := s.getScratch()
	defer s.putScratch(sc)
	for i := oldSamp; i < nSamp; i++ {
		lat, cost, carb := s.boundReplay(ref, i, h, sc)
		if lat < 0 || cost < 0 || carb < 0 {
			b.ok = false
		}
		b.preLat[i+1] = b.preLat[i] + lat
		b.preCost[i+1] = b.preCost[i] + cost
		b.preCarb[i+1] = b.preCarb[i] + carb
	}
}
