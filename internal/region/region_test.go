package region

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogueBasics(t *testing.T) {
	c := NorthAmerica()
	if c.Len() != 6 {
		t.Fatalf("catalogue has %d regions, want 6", c.Len())
	}
	r, ok := c.Get(USEast1)
	if !ok {
		t.Fatal("us-east-1 missing")
	}
	if r.Country != "US" || r.GridZone != "US-MIDA-PJM" {
		t.Errorf("us-east-1 metadata: %+v", r)
	}
	// us-east-1 and us-east-2 share a grid (§2.1).
	r2, _ := c.Get(USEast2)
	if r2.GridZone != r.GridZone {
		t.Errorf("us-east-1/2 grids differ: %s vs %s", r.GridZone, r2.GridZone)
	}
	if _, ok := c.Get("aws:eu-west-1"); ok {
		t.Error("unknown region resolved")
	}
}

func TestCatalogueIDsSorted(t *testing.T) {
	ids := NorthAmerica().IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestNewCatalogueRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewCatalogue([]Region{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Error("want duplicate error")
	}
	if _, err := NewCatalogue([]Region{{ID: ""}}); err == nil {
		t.Error("want empty-ID error")
	}
}

func TestDefaultPerfFactor(t *testing.T) {
	c, err := NewCatalogue([]Region{{ID: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := c.Get("x")
	if r.PerfFactor != 1.0 {
		t.Errorf("default perf factor = %v", r.PerfFactor)
	}
}

func TestSubset(t *testing.T) {
	c := NorthAmerica()
	sub, err := c.Subset(EvaluationFour())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 4 {
		t.Fatalf("subset has %d", sub.Len())
	}
	if _, ok := sub.Get(USEast2); ok {
		t.Error("us-east-2 should be excluded")
	}
	if _, err := c.Subset([]ID{"aws:nowhere"}); err == nil {
		t.Error("want unknown-region error")
	}
}

func TestDistanceKm(t *testing.T) {
	c := NorthAmerica()
	e1, _ := c.Get(USEast1)
	w2, _ := c.Get(USWest2)
	d := DistanceKm(e1, w2)
	// Virginia to Oregon is roughly 3,700 km.
	if d < 3200 || d > 4200 {
		t.Errorf("us-east-1..us-west-2 distance = %.0f km", d)
	}
	if dd := DistanceKm(e1, e1); dd != 0 {
		t.Errorf("self distance = %v", dd)
	}
	if DistanceKm(e1, w2) != DistanceKm(w2, e1) {
		t.Error("distance not symmetric")
	}
}

func TestConstraintPermits(t *testing.T) {
	c := NorthAmerica()
	ca, _ := c.Get(CACentral1)
	us, _ := c.Get(USEast1)

	empty := Constraint{}
	if !empty.Permits(ca) || !empty.Permits(us) {
		t.Error("empty constraint must permit everything")
	}

	usOnly := Constraint{AllowedCountries: []string{"US"}}
	if usOnly.Permits(ca) {
		t.Error("US-only permitted Canada")
	}
	if !usOnly.Permits(us) {
		t.Error("US-only rejected us-east-1")
	}

	deny := Constraint{DisallowedRegions: []ID{USEast1}}
	if deny.Permits(us) {
		t.Error("deny list ignored")
	}

	allowList := Constraint{AllowedRegions: []ID{CACentral1}}
	if allowList.Permits(us) || !allowList.Permits(ca) {
		t.Error("allow list misapplied")
	}

	provider := Constraint{AllowedProviders: []string{"gcp"}}
	if provider.Permits(us) {
		t.Error("provider filter ignored")
	}

	// Deny wins over allow.
	both := Constraint{AllowedRegions: []ID{USEast1}, DisallowedRegions: []ID{USEast1}}
	if both.Permits(us) {
		t.Error("deny should win over allow")
	}
}

func TestMergeFunctionSupersedesWorkflow(t *testing.T) {
	wf := Constraint{AllowedRegions: []ID{USEast1, USWest2}, DisallowedRegions: []ID{USWest1}}
	fn := Constraint{AllowedRegions: []ID{CACentral1}, DisallowedRegions: []ID{USEast2}}
	m := Merge(wf, fn)
	c := NorthAmerica()
	ca, _ := c.Get(CACentral1)
	e1, _ := c.Get(USEast1)
	if !m.Permits(ca) {
		t.Error("function-level allow should supersede workflow allow")
	}
	if m.Permits(e1) {
		t.Error("workflow allow should be replaced, not unioned")
	}
	// Deny lists accumulate.
	w1, _ := c.Get(USWest1)
	e2, _ := c.Get(USEast2)
	if m.Permits(w1) || m.Permits(e2) {
		t.Error("merged deny lists not enforced")
	}
}

func TestMergeEmptyFunctionKeepsWorkflow(t *testing.T) {
	wf := Constraint{AllowedCountries: []string{"CA"}}
	m := Merge(wf, Constraint{})
	c := NorthAmerica()
	us, _ := c.Get(USEast1)
	ca, _ := c.Get(CACentral1)
	if m.Permits(us) || !m.Permits(ca) {
		t.Error("workflow constraint lost in merge")
	}
}

func TestQuickDenyAlwaysExcludes(t *testing.T) {
	c := NorthAmerica()
	ids := c.IDs()
	f := func(denyIdx, testIdx uint8) bool {
		deny := ids[int(denyIdx)%len(ids)]
		target := ids[int(testIdx)%len(ids)]
		cons := Constraint{DisallowedRegions: []ID{deny}}
		r, _ := c.Get(target)
		permitted := cons.Permits(r)
		if target == deny {
			return !permitted
		}
		return permitted
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluationFour(t *testing.T) {
	four := EvaluationFour()
	if len(four) != 4 {
		t.Fatalf("EvaluationFour = %v", four)
	}
	want := map[ID]bool{USEast1: true, USWest1: true, USWest2: true, CACentral1: true}
	for _, id := range four {
		if !want[id] {
			t.Errorf("unexpected region %s", id)
		}
	}
}

func TestHaversineAgainstKnownValue(t *testing.T) {
	// Montreal to Calgary is about 3,000 km great-circle.
	c := NorthAmerica()
	mtl, _ := c.Get(CACentral1)
	yyc, _ := c.Get(CAWest1)
	d := DistanceKm(mtl, yyc)
	if math.Abs(d-3000) > 300 {
		t.Errorf("Montreal-Calgary = %.0f km, want ~3000", d)
	}
}

func TestGlobalCatalogue(t *testing.T) {
	g := Global()
	if g.Len() != 12 {
		t.Fatalf("global catalogue has %d regions, want 12", g.Len())
	}
	se, ok := g.Get(EUNorth1)
	if !ok || se.Country != "SE" {
		t.Errorf("eu-north-1 = %+v ok=%v", se, ok)
	}
	// NA regions remain present and identical.
	na := NorthAmerica()
	for _, id := range na.IDs() {
		if _, ok := g.Get(id); !ok {
			t.Errorf("global missing NA region %s", id)
		}
	}
	// Southern hemisphere region present for seasonality studies.
	syd, ok := g.Get(APSoutheast2)
	if !ok || syd.Lat >= 0 {
		t.Errorf("sydney = %+v", syd)
	}
}
