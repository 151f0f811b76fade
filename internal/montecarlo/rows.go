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
type RowPrune struct {
	Metric    BatchMetric
	Threshold []float64
	Horizon   []int
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

// EstimateRows evaluates every candidate plan at every compiled hour —
// replay once, price every open hour: out[i][h] is nil exactly when
// pruning proved that plan's Metric mean at hour h exceeds Threshold[h],
// and otherwise bit-identical to Estimate(assigns[i], h). Snapshots
// without tapes (or with deferred exec errors) fall back to sequential
// single-hour evaluation with pruning disabled.
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
	if s.tapes == nil || s.anyExecErr {
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
	bases, arena, err := s.newBases(assigns)
	if err != nil {
		return nil, err
	}
	defer arena.Release()
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
