// Package netmodel models inter-region network behaviour: round-trip
// times, one-way transmission latency for a payload, and per-flow
// bandwidth. It stands in for the CloudPing latency grid the paper's
// Metric Manager consults when no historical data exists: RTTs derive from
// great-circle distance with realistic fiber-route inflation and were
// checked against public CloudPing values for the NA region pairs.
package netmodel

import (
	"fmt"
	"time"

	"caribou/internal/region"
)

// Model computes network metrics over a region catalogue.
type Model struct {
	cat *region.Catalogue
}

// Speed/shape constants for the synthetic network.
const (
	// fiberKmPerMs is the one-way propagation speed in fiber
	// (~2/3 of c).
	fiberKmPerMs = 200.0
	// routeInflation accounts for non-great-circle fiber paths and
	// router hops.
	routeInflation = 1.35
	// baseOverheadMs is the fixed per-round-trip processing overhead.
	baseOverheadMs = 4.0
	// intraRTTMs is the round-trip time within one region.
	intraRTTMs = 1.2

	// Per-flow bandwidths. Inter-region flows ride shared backbone
	// links; intra-region flows stay inside the datacenter fabric.
	intraBandwidthBytesPerSec = 300e6
	interBandwidthBytesPerSec = 80e6
)

// New returns a model over the catalogue.
func New(cat *region.Catalogue) *Model { return &Model{cat: cat} }

// RTT returns the mean round-trip time between two regions.
func (m *Model) RTT(a, b region.ID) (time.Duration, error) {
	ra, ok := m.cat.Get(a)
	if !ok {
		return 0, fmt.Errorf("netmodel: unknown region %q", a)
	}
	rb, ok := m.cat.Get(b)
	if !ok {
		return 0, fmt.Errorf("netmodel: unknown region %q", b)
	}
	if a == b {
		return time.Duration(intraRTTMs * float64(time.Millisecond)), nil
	}
	distKm := region.DistanceKm(ra, rb)
	ms := 2*distKm/fiberKmPerMs*routeInflation + baseOverheadMs
	return time.Duration(ms * float64(time.Millisecond)), nil
}

// MustRTTSeconds returns the mean RTT in seconds, substituting a small
// default for unknown regions. Convenience for modeling layers that have
// already validated their regions.
func (m *Model) MustRTTSeconds(a, b region.ID) float64 {
	d, err := m.RTT(a, b)
	if err != nil {
		return 0.001
	}
	return d.Seconds()
}

// Bandwidth returns the per-flow bandwidth between two regions in
// bytes per second.
func (m *Model) Bandwidth(a, b region.ID) float64 {
	if a == b {
		return intraBandwidthBytesPerSec
	}
	return interBandwidthBytesPerSec
}

// TransferTime returns the mean one-way time to deliver a payload of the
// given size from a to b: half an RTT of propagation plus serialization at
// the per-flow bandwidth.
func (m *Model) TransferTime(a, b region.ID, bytes float64) (time.Duration, error) {
	rtt, err := m.RTT(a, b)
	if err != nil {
		return 0, err
	}
	if bytes < 0 {
		bytes = 0
	}
	ser := bytes / m.Bandwidth(a, b)
	return rtt/2 + time.Duration(ser*float64(time.Second)), nil
}
