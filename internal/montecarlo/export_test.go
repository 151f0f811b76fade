package montecarlo

import "fmt"

// SlotLeak replays assign's first batch one sample at a time and reports
// the first sample that left a dense kwh/gb accumulator non-zero outside
// the plan's static slot lists ("" when none did), plus how many dense
// entries the batch touched at all.
func (s *Snapshot) SlotLeak(assign []int) (leak string, touched int, err error) {
	b, err := s.NewBasis(nil, assign)
	if err != nil {
		return "", 0, err
	}
	inSlot := make([]bool, s.nR+s.nR*s.nR)
	for _, r := range b.regs {
		inSlot[r] = true
	}
	for _, p := range b.pairs {
		inSlot[s.nR+int(p)] = true
	}
	seen := make([]bool, len(inSlot))
	td := s.tape.ensure(s, BatchSize)
	sc := s.getScratch()
	defer s.putScratch(sc)
	lanes := []replayLane{{b: b, sc: sc, assign: assign, buf: sc.buf, blk: make([]float64, BatchSize*(2+b.width()))}}
	for i := 0; i < BatchSize; i++ {
		lanes[0].j = i
		if err := s.replaySamples(td, 0, lanes); err != nil {
			return "", 0, err
		}
		for k, v := range sc.buf[2*s.nodes.Len():] { // kwh then gb, dense
			if v == 0 {
				continue
			}
			seen[k] = true
			if !inSlot[k] && leak == "" {
				leak = fmt.Sprintf("sample %d: dense entry %d (of %d regions + %d pairs) = %g is outside regs %v pairs %v", i, k, s.nR, s.nR*s.nR, v, b.regs, b.pairs)
			}
		}
		lanes[0].commit()
		for k, v := range sc.buf[2*s.nodes.Len():] {
			if v != 0 && leak == "" {
				leak = fmt.Sprintf("sample %d: commit left dense entry %d = %g behind", i, k, v)
			}
		}
		clear(sc.kwh)
		clear(sc.gb)
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
	lanes := make([]replayLane, 1, lanesInFlight)
	lanes[0].b = bases[0]
	if _, err := s.replayBatch(lanes, 0); err != nil {
		return nil, err
	}
	return append([]float64(nil), s.screenRow(bases[0])...), nil
}

// HourTables returns hour h's live intensity (by region) and route factor
// (by region pair) tables, for tests that hand-build an hour's signal.
func (s *Snapshot) HourTables(h int) (inten, rf []float64) { return s.intensity[h], s.txRF[h] }
