package montecarlo

// Hour rows: replay each plan once, price every hour of the window.
//
// A sweep (batch.go) runs over an hour window: a lane's basis holds the
// hour-independent sample — latency, cost, energy by region, gigabytes by
// region pair — and each boundary prices the new block at every hour the
// lane still has open. What stays per hour is what reads the carbon series:
// the carbon CV of the §7.1 stopping rule, the summary (an hour is
// summarized at its own boundary), and the prune rule — per (plan, hour),
// against the hour's RowPrune threshold and the hour's bound columns
// (bounds.go). A lane leaves the sweep when none of its hours is open.

import "math"

// RowPrune carries a sweep's per-hour abandonment thresholds, indexed by
// compiled hour whatever the sweep's window: a plan may be abandoned at
// hour h once its final Metric mean there provably exceeds Threshold[h]
// (missing or +Inf entries never prune). Horizon[h] is the sample count
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

// RowScreen is what a parked plan's first block proves about its hour row:
// every hour's estimate has the embedded Estimate's sample count, latency
// and cost fields, and a CarbonMean within 4e-13 of Carbon[h] (screenRow).
// CarbonP95 and the carbon split are not hour-free and stay zero.
type RowScreen struct {
	Estimate
	Carbon []float64
}

// Parked returns what the sweep that parked b recorded; nil if none did.
func (b *Basis) Parked() *RowScreen { return b.parked }
