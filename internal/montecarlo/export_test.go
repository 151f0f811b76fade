package montecarlo

import (
	"fmt"

	"caribou/internal/simclock"
)

// SlotLeak samples assign's first batch through the reference sampler,
// one sample at a time, and reports the first sample that left its dense
// kwh/gb accumulators non-zero outside the plan's static slot lists, or
// non-zero anywhere once priced ("" when none did), plus how many dense
// entries the batch touched at all.
func (s *Snapshot) SlotLeak(assign []int) (leak string, touched int, err error) {
	if err := s.checkArgs(assign, 0); err != nil {
		return "", 0, err
	}
	regs, pairs := s.staticSlots(assign)
	inSlot := make([]bool, s.nR+s.nR*s.nR)
	for _, r := range regs {
		inSlot[r] = true
	}
	for _, p := range pairs {
		inSlot[s.nR+int(p)] = true
	}
	seen := make([]bool, len(inSlot))
	rng := simclock.AcquireRand(s.mcSeed)
	defer rng.Release()
	sc := newSnapScratch(s.nodes.Len(), s.nR)
	dense := func(k int) float64 { // kwh then gb
		if k < s.nR {
			return sc.kwh[k]
		}
		return sc.gb[k-s.nR]
	}
	for i := 0; i < BatchSize; i++ {
		if _, err := s.sampleDense(assign, rng, sc); err != nil {
			return "", 0, err
		}
		for k := range inSlot {
			v := dense(k)
			if v == 0 {
				continue
			}
			seen[k] = true
			if !inSlot[k] && leak == "" {
				leak = fmt.Sprintf("sample %d: dense entry %d (of %d regions + %d pairs) = %g is outside regs %v pairs %v", i, k, s.nR, s.nR*s.nR, v, regs, pairs)
			}
		}
		s.priceDense(0, sc.kwh, sc.gb)
		for k := range inSlot {
			if v := dense(k); v != 0 && leak == "" {
				leak = fmt.Sprintf("sample %d: pricing left dense entry %d = %g behind", i, k, v)
			}
		}
	}
	for _, ok := range seen {
		if ok {
			touched++
		}
	}
	return leak, touched, nil
}

// EstimateRows is EstimateBases over every compiled hour and bases that
// live for the call.
func (s *Snapshot) EstimateRows(assigns [][]int, prune *RowPrune) ([][]*Estimate, error) {
	return s.EstimateWindow(assigns, 0, len(s.hours), prune)
}

// EstimateWindow is EstimateBases over [h0, h0+nh) and bases that live for
// the call.
func (s *Snapshot) EstimateWindow(assigns [][]int, h0, nh int, prune *RowPrune) ([][]*Estimate, error) {
	bases, arena, err := s.newBases(assigns)
	if err != nil {
		return nil, err
	}
	defer arena.Release()
	return s.EstimateBases(bases, h0, nh, prune, nil)
}

// estimateHour is EstimateBases over the one-hour window at h, read at its
// one column.
func (s *Snapshot) estimateHour(bases []*Basis, h int, prune *RowPrune, sem chan struct{}) ([]*Estimate, error) {
	rows, err := s.EstimateBases(bases, h, 1, prune, sem)
	if err != nil {
		return nil, err
	}
	col := make([]*Estimate, len(rows))
	for i, row := range rows {
		col[i] = row[0]
	}
	return col, nil
}

// hourPrune is a RowPrune holding one threshold and horizon, at hour h.
func hourPrune(m BatchMetric, h int, thr float64, horizon int) *RowPrune {
	p := &RowPrune{Metric: m, Threshold: make([]float64, h+1), Horizon: make([]int, h+1)}
	p.Threshold[h], p.Horizon[h] = thr, horizon
	return p
}

// ScreenRow replays assign's first batch onto a private basis and returns
// a copy of what the block proves per hour (screenRow): the carbon mean the
// reference rule stops with at the first boundary, or -Inf.
func (s *Snapshot) ScreenRow(assign []int) ([]float64, error) {
	bases, arena, err := s.newBases([][]int{assign})
	if err != nil {
		return nil, err
	}
	defer arena.Release()
	if err := s.replayBatch(bases, 0); err != nil {
		return nil, err
	}
	return append([]float64(nil), s.screenRow(bases[0])...), nil
}

// HourTables returns hour h's live intensity (by region) and route factor
// (by region pair) tables, for tests that hand-build an hour's signal.
func (s *Snapshot) HourTables(h int) (inten, rf []float64) { return s.intensity[h], s.txRF[h] }

// PriceFirstRows is the prune rule with every (plan, hour) priced before
// its prune check — the order a sweep kept before it learned to prune from
// the carbon floor — walked one (plan, hour) at a time over private bases:
// at each boundary the block is priced (priceBlock), the stopping rule
// checked, and only then the bound check run on the exact running sum.
// Screening is not modelled: on a snapshot whose first blocks prove no stop
// it closes nothing. out[i][h] is Estimate(assigns[i], h), or nil where the
// check abandoned the cell; pruned counts the nil cells.
func (s *Snapshot) PriceFirstRows(assigns [][]int, prune *RowPrune) (out [][]*Estimate, pruned int, err error) {
	bases, arena, err := s.newBases(assigns)
	if err != nil {
		return nil, 0, err
	}
	defer arena.Release()
	sw := &sweep{s: s, rows: prune}
	out = make([][]*Estimate, len(bases))
	for i, b := range bases {
		out[i] = make([]*Estimate, len(s.hours))
		coef := make([]float64, b.width())
		for h := range s.hours {
			a := &hourAcc{sums: make([]float64, 1)}
			for n := BatchSize; ; n += BatchSize {
				k := n/BatchSize - 1
				if b.n < n {
					if err := s.replayBatch(bases[i:i+1], n-BatchSize); err != nil {
						return nil, 0, err
					}
				}
				st := b.statAt(k)
				b.gather(coef, s.intensity[h], s.txRF[h])
				a.sums[0] = priceBlock(a.block(k), b.blocks[k][2*BatchSize:], coef, len(b.regs), a.sums[0])
				if st.sharedOK && a.carbCV(0, n, a.sums[0]/float64(n)) < TargetCV || n >= MaxSamples {
					if out[i][h], err = s.Estimate(assigns[i], h); err != nil {
						return nil, 0, err
					}
					break
				}
				partial, shared := sw.sharedSum(st)
				if !shared {
					partial = a.sums[0]
				}
				if sw.prunedAt(h, n, partial) {
					pruned++
					break
				}
			}
		}
	}
	return out, pruned, nil
}
