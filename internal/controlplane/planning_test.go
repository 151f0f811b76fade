package controlplane

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/manager"
)

// usOnlyRegister registers a US-only hourly tenant. Without ca-central-1
// in the region set no single region wins every hour, so its plans depend
// on the carbon forecast; on the evaluation four every plan is all-Canada.
func usOnlyRegister(id, workload string) string {
	return fmt.Sprintf(`{"id":%q,"workload":%q,"regions":["aws:us-east-1","aws:us-east-2","aws:us-west-1","aws:us-west-2"],"initial_tokens":1e9}`, id, workload)
}

// TestTenantSolvesTheForecastDay: a tenant's streamed hourly solve is the
// one planning step — forecasters refit through now, then the 24 hours from
// now solved on them. Its published plans and carbon estimate equal that
// step written out by hand on the tenant's own metric window and solver.
func TestTenantSolvesTheForecastDay(t *testing.T) {
	srv := newTestServer(t, 2)
	now := DefaultStart.Add(13 * time.Hour)
	for _, wl := range []string{"text2speech-censoring", "image-processing", "dna-visualization"} {
		id := "us-" + wl
		register(t, srv, usOnlyRegister(id, wl))
		w := do(t, srv, "POST", "/v1/workflows/"+id+"/trace",
			fmt.Sprintf(`{"at":%q,"invocations":200}`, now.Format(time.RFC3339)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: trace: status %d: %s", wl, w.Code, w.Body.String())
		}
		if resp := decode[TraceResponse](t, w); !resp.Solved || resp.Granularity != manager.GranularityHourly.String() {
			t.Fatalf("%s: delta at +13h did not solve hourly: %+v", wl, resp)
		}

		tenant, _ := srv.tenant(id)
		if err := tenant.mm.RefreshForecasts(now); err != nil {
			t.Fatal(err)
		}
		plans, results, err := tenant.solv.SolveHourly(now, now)
		if err != nil {
			t.Fatal(err)
		}
		snap := tenant.Plan()
		if moved := hoursDiffering(snap.Plans, plans); moved > 0 {
			t.Errorf("%s: published plans differ from the forecast-day solve in %d of 24 hours", wl, moved)
		}
		if want := results[now.Hour()].Estimate.CarbonMean; snap.CarbonMean != want {
			t.Errorf("%s: carbon_mean %v, want %v", wl, snap.CarbonMean, want)
		}
	}
}

func hoursDiffering(a, b dag.HourlyPlans) int {
	n := 0
	for h := range a {
		if a[h].String() != b[h].String() {
			n++
		}
	}
	return n
}
