package pricing

import (
	"math"
	"testing"
	"testing/quick"

	"caribou/internal/region"
)

func TestExecutionCostKnownValue(t *testing.T) {
	b := DefaultBook()
	// 1024 MB for 10 s in us-east-1: 10 GB-s at $0.0000166667 plus the
	// $0.20/1M request fee.
	got := b.Prices(region.USEast1).ExecutionCost(1024, 10)
	want := 10*0.0000166667 + 0.20/1e6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("cost = %v, want %v", got, want)
	}
}

func TestExecutionCostRegionFactor(t *testing.T) {
	b := DefaultBook()
	east := b.Prices(region.USEast1).ExecutionCost(1769, 60)
	west1 := b.Prices(region.USWest1).ExecutionCost(1769, 60)
	if west1 <= east {
		t.Errorf("us-west-1 (%v) should be pricier than us-east-1 (%v)", west1, east)
	}
	if r := west1 / east; r > 1.15 {
		t.Errorf("us-west-1 premium %.3f implausibly large", r)
	}
}

func TestExecutionCostNegativeInputs(t *testing.T) {
	b := DefaultBook()
	if b.Prices(region.USEast1).ExecutionCost(-1, 10) != 0 {
		t.Error("negative memory should cost 0")
	}
	if b.Prices(region.USEast1).ExecutionCost(1024, -1) != 0 {
		t.Error("negative duration should cost 0")
	}
}

func TestEgress(t *testing.T) {
	b := DefaultBook()
	if c := b.EgressCost(region.USEast1, region.USEast1, 5e9); c != 0 {
		t.Errorf("intra-region egress = %v, want 0", c)
	}
	got := b.EgressCost(region.USEast1, region.USWest2, 1e9)
	if math.Abs(got-0.02) > 1e-12 {
		t.Errorf("inter-region egress = %v, want 0.02", got)
	}
	if b.EgressCost(region.USEast1, region.USWest2, 0) != 0 {
		t.Error("zero bytes should be free")
	}
	if b.EgressCost(region.USEast1, region.USWest2, -1) != 0 {
		t.Error("negative bytes should be free")
	}
}

func TestServiceCosts(t *testing.T) {
	b := DefaultBook()
	if got, want := b.SNSCost(region.USEast1, 1e6), 0.50; math.Abs(got-want) > 1e-9 {
		t.Errorf("1M SNS publishes = %v, want %v", got, want)
	}
	if got, want := b.DynamoCost(region.USEast1, 1e6, 0), 0.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("1M reads = %v, want %v", got, want)
	}
	if got, want := b.DynamoCost(region.USEast1, 0, 1e6), 1.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("1M writes = %v, want %v", got, want)
	}
	if b.SNSCost(region.USEast1, -3) != 0 || b.DynamoCost(region.USEast1, -1, -1) != 0 {
		t.Error("negative counts should cost 0")
	}
}

func TestUnknownRegionFallsBackToUSEast1(t *testing.T) {
	b := DefaultBook()
	got := b.Prices("aws:mars-north-1").ExecutionCost(1024, 10)
	want := b.Prices(region.USEast1).ExecutionCost(1024, 10)
	if got != want {
		t.Errorf("fallback pricing = %v, want %v", got, want)
	}
}

func TestQuickCostLinearInDuration(t *testing.T) {
	b := DefaultBook()
	f := func(d16 uint16) bool {
		d := float64(d16)
		p := b.Prices(region.USEast1)
		one := b.Prices(region.USEast1).ExecutionCost(2048, d) - p.LambdaRequestUSD
		two := b.Prices(region.USEast1).ExecutionCost(2048, 2*d) - p.LambdaRequestUSD
		return math.Abs(two-2*one) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringSummary(t *testing.T) {
	if s := DefaultBook().String(); s == "" {
		t.Error("empty summary")
	}
}
