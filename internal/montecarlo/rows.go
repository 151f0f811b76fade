package montecarlo

// Hour rows: replay each plan once, price every compiled hour.
//
// A row sweep is the sweep of batch.go over the whole compiled window: a
// lane's basis holds the hour-independent sample — latency, cost, energy
// by region, gigabytes by region pair — and each boundary prices the new
// block at every hour the lane still has open. What stays per hour is what
// reads the carbon series: the carbon CV of the §7.1 stopping rule, the
// summary (an hour is summarized at its own boundary), and bound pruning —
// per (plan, hour), against the hour's threshold and the hour's hourBounds
// sidecar. A lane leaves the sweep when none of its hours is open.

import "math"

// RowPrune carries a row sweep's per-hour abandonment thresholds: a plan
// may be abandoned at hour h once its final Metric mean there provably
// exceeds Threshold[h] (+Inf never prunes). Horizon[h] is the sample count
// of the estimate Threshold[h] was derived from — the home row's, in
// exhaustive enumeration: the hour's bound columns are read that far ahead
// of the lane's own boundary and no further, so a prune decision is a pure
// function of (plan, hour, threshold, horizon) — never of what other rows,
// hours or workers happened to compile first.
//
// Park, when set, defers a plan whose first block proves its stop at every
// hour and which the thresholds leave open at one (batch.go: screen): its
// row comes back nil and its basis moves to Park and answers Parked, so the
// caller can tighten the thresholds from every parked plan's screen before
// sweeping those bases again.
type RowPrune struct {
	Metric    BatchMetric
	Threshold []float64
	Horizon   []int
	Park      *BasisArena
}

// at returns hour h's threshold and the look-ahead horizon of a prune
// check at sample count n.
func (p *RowPrune) at(h, n int) (thr float64, horizon int) {
	if h >= len(p.Threshold) {
		return math.Inf(1), n
	}
	horizon = n
	if h < len(p.Horizon) {
		horizon = max(n, min(p.Horizon[h], MaxSamples))
	}
	return p.Threshold[h], horizon
}

// EstimateBasisRows evaluates every plan of bases — which the caller owns —
// at every compiled hour: replay what a basis lacks once, price every open
// hour. out[i][h] is nil exactly when the sweep proved that plan's Metric
// mean at hour h exceeds Threshold[h] — by the screen at the first boundary
// or by the bounds at a later one — or parked the plan, and otherwise
// bit-identical to Estimate(plan, h). Snapshots without tapes (or with
// deferred exec errors) fall back to sequential single-hour evaluation
// with pruning disabled.
func (s *Snapshot) EstimateBasisRows(bases []*Basis, prune *RowPrune) ([][]*Estimate, error) {
	H := len(s.hours)
	out := make([][]*Estimate, len(bases))
	cells := make([]*Estimate, len(bases)*H)
	for i := range out {
		out[i] = cells[i*H : (i+1)*H : (i+1)*H]
	}
	if len(bases) == 0 {
		return out, nil
	}
	if s.tapes == nil || s.anyExecErr {
		for i, b := range bases {
			for h := range out[i] {
				est, err := s.Estimate(b.assign, h)
				if err != nil {
					return nil, err
				}
				out[i][h] = est
			}
		}
		return out, nil
	}
	sw := s.newSweep(bases, 0, H, nil)
	if prune == nil {
		prune = &RowPrune{}
	}
	sw.rows, sw.metric = prune, prune.Metric
	s.tel.rowSweeps.Inc()
	for i := range sw.lanes {
		sw.lanes[i].out = out[i]
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	return out, nil
}

// RowScreen is what a parked plan's first block proves about its hour row:
// every hour's estimate has the embedded Estimate's sample count, latency
// and cost fields, and a CarbonMean within 4e-13 of Carbon[h] (screenRow).
// CarbonP95 and the carbon split are not hour-free and stay zero.
type RowScreen struct {
	Estimate
	Carbon []float64
}

// Parked returns what the row sweep that parked b recorded; nil if none did.
func (b *Basis) Parked() *RowScreen { return b.parked }
