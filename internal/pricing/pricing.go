// Package pricing models the cloud price book used by the Metric Manager's
// cost model (§7.1): Lambda compute (GB-seconds plus a per-invocation fee),
// SNS messaging, DynamoDB accesses introduced by Caribou's geospatial
// shifting, and inter-region egress. Values follow the public 2024 AWS
// list prices; the free tier is not modeled, matching the paper.
package pricing

import (
	"fmt"

	"caribou/internal/region"
)

// RegionPrices holds the per-region unit prices in USD.
type RegionPrices struct {
	LambdaGBSecondUSD float64 // per GB-second of configured memory
	LambdaRequestUSD  float64 // per invocation
	SNSPublishUSD     USD     // per publish
	DynamoWriteUSD    USD     // per write request unit
	DynamoReadUSD     USD     // per read request unit
}

// USD is a price in United States dollars.
type USD = float64

// Book is an immutable price catalogue.
type Book struct {
	regions             map[region.ID]RegionPrices
	interRegionEgressGB USD // per GB between two regions of the provider
	intraRegionEgressGB USD // per GB within one region
}

// baseline us-east-1 unit prices.
const (
	baseGBSecond  = 0.0000166667
	baseRequest   = 0.20 / 1e6
	baseSNS       = 0.50 / 1e6
	baseDynWrite  = 1.25 / 1e6
	baseDynRead   = 0.25 / 1e6
	interEgressGB = 0.02
)

// regionCostFactor scales compute-adjacent prices relative to us-east-1.
// us-west-1 is the notably pricier NA region.
var regionCostFactor = map[region.ID]float64{
	region.USEast1:    1.00,
	region.USEast2:    1.00,
	region.USWest1:    1.11,
	region.USWest2:    1.00,
	region.CACentral1: 1.01,
	region.CAWest1:    1.04,
}

// DefaultBook returns the price book for the North American catalogue.
// Unknown regions fall back to us-east-1 prices via Prices.
func DefaultBook() *Book {
	b := &Book{
		regions:             make(map[region.ID]RegionPrices, len(regionCostFactor)),
		interRegionEgressGB: interEgressGB,
		intraRegionEgressGB: 0,
	}
	for id, f := range regionCostFactor {
		b.regions[id] = RegionPrices{
			LambdaGBSecondUSD: baseGBSecond * f,
			LambdaRequestUSD:  baseRequest,
			SNSPublishUSD:     baseSNS,
			DynamoWriteUSD:    baseDynWrite,
			DynamoReadUSD:     baseDynRead,
		}
	}
	return b
}

// Prices returns the unit prices for a region, defaulting to us-east-1
// rates when the region is not in the book.
func (b *Book) Prices(id region.ID) RegionPrices {
	if p, ok := b.regions[id]; ok {
		return p
	}
	return b.regions[region.USEast1]
}

// ExecutionCost is Book.ExecutionCost at an already resolved price row.
func (p RegionPrices) ExecutionCost(memMB, durationSec float64) USD {
	if memMB < 0 || durationSec < 0 {
		return 0
	}
	gbSeconds := memMB / 1024 * durationSec
	return gbSeconds*p.LambdaGBSecondUSD + p.LambdaRequestUSD
}

// EgressCost returns the data-transfer cost of moving bytes from src to
// dst. Intra-region transfer is free; inter-region transfer is billed per
// GB to the source region's owner, matching AWS egress fees.
func (b *Book) EgressCost(src, dst region.ID, bytes float64) USD {
	if bytes <= 0 {
		return 0
	}
	gb := bytes / 1e9
	if src == dst {
		return gb * b.intraRegionEgressGB
	}
	return gb * b.interRegionEgressGB
}

// SNSCost returns the cost of publishes SNS messages in the region.
func (b *Book) SNSCost(id region.ID, publishes int) USD {
	return b.Prices(id).SNSCost(publishes)
}

// SNSCost is Book.SNSCost at an already resolved price row.
func (p RegionPrices) SNSCost(publishes int) USD {
	if publishes <= 0 {
		return 0
	}
	return float64(publishes) * p.SNSPublishUSD
}

// DynamoCost returns the cost of the given DynamoDB read and write request
// units in the region. Caribou's wrapper performs these accesses for DP
// retrieval and sync-node annotations.
func (b *Book) DynamoCost(id region.ID, reads, writes int) USD {
	return b.Prices(id).DynamoCost(reads, writes)
}

// DynamoCost is Book.DynamoCost at an already resolved price row.
func (p RegionPrices) DynamoCost(reads, writes int) USD {
	var c USD
	if reads > 0 {
		c += float64(reads) * p.DynamoReadUSD
	}
	if writes > 0 {
		c += float64(writes) * p.DynamoWriteUSD
	}
	return c
}

// String summarizes the book for diagnostics.
func (b *Book) String() string {
	return fmt.Sprintf("pricing.Book{%d regions, inter-egress $%.3f/GB}", len(b.regions), b.interRegionEgressGB)
}
