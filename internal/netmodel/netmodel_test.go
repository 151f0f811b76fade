package netmodel

import (
	"testing"
	"testing/quick"
	"time"

	"caribou/internal/region"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	return New(region.NorthAmerica())
}

func TestRTTIntraRegion(t *testing.T) {
	m := newModel(t)
	d, err := m.RTT(region.USEast1, region.USEast1)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 5*time.Millisecond {
		t.Errorf("intra RTT = %v", d)
	}
}

func TestRTTCrossCountryPlausible(t *testing.T) {
	m := newModel(t)
	d, err := m.RTT(region.USEast1, region.USWest1)
	if err != nil {
		t.Fatal(err)
	}
	// CloudPing reports roughly 60-70 ms for this pair.
	if d < 40*time.Millisecond || d > 100*time.Millisecond {
		t.Errorf("us-east-1..us-west-1 RTT = %v, want 40-100 ms", d)
	}
	near, err := m.RTT(region.USEast1, region.USEast2)
	if err != nil {
		t.Fatal(err)
	}
	if near >= d {
		t.Errorf("nearby pair RTT (%v) should beat cross-country (%v)", near, d)
	}
}

func TestRTTSymmetric(t *testing.T) {
	m := newModel(t)
	ids := region.NorthAmerica().IDs()
	for _, a := range ids {
		for _, b := range ids {
			ab, err1 := m.RTT(a, b)
			ba, err2 := m.RTT(b, a)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if ab != ba {
				t.Errorf("RTT(%s,%s)=%v != RTT(%s,%s)=%v", a, b, ab, b, a, ba)
			}
		}
	}
}

func TestRTTUnknownRegion(t *testing.T) {
	m := newModel(t)
	if _, err := m.RTT("aws:nowhere", region.USEast1); err == nil {
		t.Error("want error for unknown source")
	}
	if _, err := m.RTT(region.USEast1, "aws:nowhere"); err == nil {
		t.Error("want error for unknown destination")
	}
	if s := m.MustRTTSeconds("aws:nowhere", region.USEast1); s <= 0 {
		t.Errorf("MustRTTSeconds fallback = %v", s)
	}
}

func TestTransferTimeIncludesSerialization(t *testing.T) {
	m := newModel(t)
	small, err := m.TransferTime(region.USEast1, region.USWest2, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := m.TransferTime(region.USEast1, region.USWest2, 800e6)
	if err != nil {
		t.Fatal(err)
	}
	// 800 MB at 80 MB/s is 10 s of serialization.
	if big-small < 9*time.Second {
		t.Errorf("big transfer %v vs small %v: serialization missing", big, small)
	}
}

func TestBandwidthIntraVsInter(t *testing.T) {
	m := newModel(t)
	if m.Bandwidth(region.USEast1, region.USEast1) <= m.Bandwidth(region.USEast1, region.USWest2) {
		t.Error("intra-region bandwidth should exceed inter-region")
	}
}

func TestQuickTransferTimeMonotonicInBytes(t *testing.T) {
	m := newModel(t)
	f := func(b32 uint32) bool {
		b := float64(b32)
		t1, err1 := m.TransferTime(region.USEast1, region.CACentral1, b)
		t2, err2 := m.TransferTime(region.USEast1, region.CACentral1, b+1e6)
		return err1 == nil && err2 == nil && t2 >= t1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeBytesClamp(t *testing.T) {
	m := newModel(t)
	d, err := m.TransferTime(region.USEast1, region.USWest2, -100)
	if err != nil {
		t.Fatal(err)
	}
	rtt, _ := m.RTT(region.USEast1, region.USWest2)
	if d != rtt/2 {
		t.Errorf("negative bytes: %v, want half RTT %v", d, rtt/2)
	}
}
