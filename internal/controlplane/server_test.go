package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"caribou/internal/region"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// newTestServer builds a server with no Config.Clock, so served_at is
// frozen at DefaultStart. Tests never inject a real clock, so every
// response body is a pure function of the request script.
func newTestServer(t *testing.T, shards int) *Server {
	t.Helper()
	srv, err := New(Config{Shards: shards, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// do runs one request through the in-process handler.
func do(t *testing.T, srv *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

func register(t *testing.T, srv *Server, body string) RegisterResponse {
	t.Helper()
	w := do(t, srv, "POST", "/v1/workflows", body)
	if w.Code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", w.Code, w.Body.String())
	}
	return decode[RegisterResponse](t, w)
}

func TestRegisterYieldsInitialPlan(t *testing.T) {
	srv := newTestServer(t, 2)
	resp := register(t, srv, `{"id":"t1","workload":"text2speech-censoring"}`)
	if resp.ID != "t1" || resp.PlanVersion < 1 {
		t.Fatalf("register response: %+v", resp)
	}
	// The default grant covers a daily solve, not an hourly one.
	if resp.Granularity != "hourly" {
		t.Errorf("granularity ceiling = %q", resp.Granularity)
	}

	w := do(t, srv, "GET", "/v1/workflows/t1/plan", "")
	if w.Code != http.StatusOK {
		t.Fatalf("plan: status %d: %s", w.Code, w.Body.String())
	}
	plan := decode[PlanResponse](t, w)
	if plan.Version != resp.PlanVersion || plan.Stale {
		t.Errorf("plan = %+v", plan)
	}
	if plan.Granularity != "daily" {
		t.Errorf("initial plan granularity = %q, want daily (grant covers one daily solve)", plan.Granularity)
	}
	if len(plan.Assignments) == 0 {
		t.Error("plan has no assignments")
	}
	for node, rid := range plan.Assignments {
		if node == "" || !strings.HasPrefix(rid, "aws:") {
			t.Errorf("malformed assignment %q -> %q", node, rid)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	srv := newTestServer(t, 1)
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"nope"}`, http.StatusBadRequest},
		{"bad priority", `{"workload":"image-processing","priority":"speed"}`, http.StatusBadRequest},
		{"bad granularity", `{"workload":"image-processing","granularity":"weekly"}`, http.StatusBadRequest},
		{"unknown region", `{"workload":"image-processing","regions":["aws:mars-1"]}`, http.StatusBadRequest},
		{"home outside set", `{"workload":"image-processing","home":"aws:ca-central-1","regions":["aws:us-east-1","aws:us-west-2"]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := do(t, srv, "POST", "/v1/workflows", tc.body); w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.status, w.Body.String())
		}
	}

	register(t, srv, `{"id":"dup","workload":"image-processing"}`)
	if w := do(t, srv, "POST", "/v1/workflows", `{"id":"dup","workload":"image-processing"}`); w.Code != http.StatusConflict {
		t.Errorf("duplicate id: status %d, want 409", w.Code)
	}
}

// noCarbon is a carbon source with no data at all.
type noCarbon struct{}

func (noCarbon) At(zone string, _ time.Time) (float64, error) {
	return 0, errors.New("no carbon data for " + zone)
}

func (noCarbon) Hourly(zone string, _, _ time.Time) ([]float64, error) {
	return nil, errors.New("no carbon data for " + zone)
}

// TestNewTenantFailsWithItsInitialSolve: registration's first solve cannot
// price a plan without carbon data, and its error is the registration's —
// no tenant is built, so the server stores none and releases the id.
func TestNewTenantFailsWithItsInitialSolve(t *testing.T) {
	spec := TenantSpec{ID: "t1", Workload: workloads.ImageProcessing(), Home: region.USEast1, Regions: region.EvaluationFour(), Seed: 1}
	tenant, err := newTenant(spec, region.NorthAmerica(), noCarbon{}, DefaultStart, DefaultStart.Add(24*time.Hour), 0)
	if err == nil {
		t.Fatalf("initial solve without carbon data: tenant with plan %+v, no error", tenant.Plan())
	}
}

// TestRegisterWarmsEveryStage: t288 under seed 74 is a Text2Speech tenant
// whose first warm-up day never takes the p = 0.5 profanity→censor edge, so
// that day alone leaves censor without durations and the first solve
// without a plan. Registration warms the window until every stage has run.
func TestRegisterWarmsEveryStage(t *testing.T) {
	srv, err := New(Config{Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if w := do(t, srv, "POST", "/v1/workflows", `{"id":"t288","workload":"text2speech-censoring"}`); w.Code != http.StatusCreated {
		t.Fatalf("register t288: status %d: %s", w.Code, w.Body.String())
	}
}

func TestTraceDeltaAccruesAndAdvances(t *testing.T) {
	srv := newTestServer(t, 2)
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)

	at := DefaultStart.Add(2 * time.Hour).Format(time.RFC3339)
	w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":200}`, at))
	if w.Code != http.StatusOK {
		t.Fatalf("trace: status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[TraceResponse](t, w)
	if resp.Earned <= 0 {
		t.Errorf("delta earned %v tokens", resp.Earned)
	}
	vt, err := time.Parse(time.RFC3339Nano, resp.VirtualTime)
	if err != nil || !vt.Equal(DefaultStart.Add(2*time.Hour)) {
		t.Errorf("virtual_time = %q err=%v", resp.VirtualTime, err)
	}

	// An older timestamp never rewinds virtual time.
	old := DefaultStart.Add(time.Hour).Format(time.RFC3339)
	w = do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, old))
	resp = decode[TraceResponse](t, w)
	if got, _ := time.Parse(time.RFC3339Nano, resp.VirtualTime); !got.Equal(DefaultStart.Add(2 * time.Hour)) {
		t.Errorf("virtual time rewound to %v", got)
	}
}

func TestTraceValidation(t *testing.T) {
	srv := newTestServer(t, 1)
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)
	at := DefaultStart.Format(time.RFC3339)

	if w := do(t, srv, "POST", "/v1/workflows/ghost/trace", fmt.Sprintf(`{"at":%q,"invocations":1}`, at)); w.Code != http.StatusNotFound {
		t.Errorf("unknown workflow: status %d", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/workflows/t1/trace", `{"at":"yesterday","invocations":1}`); w.Code != http.StatusBadRequest {
		t.Errorf("bad timestamp: status %d", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":-5}`, at)); w.Code != http.StatusBadRequest {
		t.Errorf("negative invocations: status %d", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":1,"class":"gigantic"}`, at)); w.Code != http.StatusBadRequest {
		t.Errorf("bad class: status %d", w.Code)
	}
	if w := do(t, srv, "GET", "/v1/workflows/ghost/plan", ""); w.Code != http.StatusNotFound {
		t.Errorf("plan for unknown workflow: status %d", w.Code)
	}
}

func TestNoTokensNoPlanAndSolveConflict(t *testing.T) {
	srv := newTestServer(t, 1)
	// A vanishingly small explicit grant affords no solve: registration
	// records a skip, the tenant has no plan, and a forced solve is 409.
	resp := register(t, srv, `{"id":"poor","workload":"image-processing","initial_tokens":1e-12}`)
	if resp.PlanVersion != 0 {
		t.Fatalf("plan version = %d for a tokenless tenant", resp.PlanVersion)
	}
	if w := do(t, srv, "GET", "/v1/workflows/poor/plan", ""); w.Code != http.StatusNotFound {
		t.Errorf("plan: status %d, want 404", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/workflows/poor/solve", ""); w.Code != http.StatusConflict {
		t.Errorf("solve: status %d, want 409", w.Code)
	}
}

func TestStreamedTrafficFundsResolve(t *testing.T) {
	srv := newTestServer(t, 2)
	reg := register(t, srv, `{"id":"t1","workload":"image-processing"}`)

	// Stream a day of heavy traffic hour by hour; once the next check
	// comes due the accrued tokens fund a re-solve.
	version := reg.PlanVersion
	solved := false
	for h := 1; h <= 72 && !solved; h++ {
		at := DefaultStart.Add(time.Duration(h) * time.Hour).Format(time.RFC3339)
		w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":500}`, at))
		if w.Code != http.StatusOK {
			t.Fatalf("trace hour %d: status %d: %s", h, w.Code, w.Body.String())
		}
		resp := decode[TraceResponse](t, w)
		if resp.Solved {
			solved = true
			if resp.PlanVersion <= version {
				t.Errorf("solve did not advance plan version: %d -> %d", version, resp.PlanVersion)
			}
		}
	}
	if !solved {
		t.Fatal("72 hours of heavy traffic never funded a re-solve")
	}
	if srv.solves.Load() < 2 {
		t.Errorf("server solves = %d, want initial + streamed", srv.solves.Load())
	}
}

// TestSkippedCheckExpiresServedPlan: a due check the budget cannot pay
// for expires the active plan (§5.2), so a GET at that virtual time must
// answer stale with the check's time as the expiry, not the expiry the
// last solve set, which can lie up to a day later.
func TestSkippedCheckExpiresServedPlan(t *testing.T) {
	srv := newTestServer(t, 1)
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)
	for h := 1; h <= 72; h++ {
		at := DefaultStart.Add(time.Duration(h) * time.Hour).Format(time.RFC3339)
		w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":0}`, at))
		if w.Code != http.StatusOK {
			t.Fatalf("trace hour %d: status %d: %s", h, w.Code, w.Body.String())
		}
		if !decode[TraceResponse](t, w).Skipped {
			continue
		}
		plan := decode[PlanResponse](t, do(t, srv, "GET", "/v1/workflows/t1/plan", ""))
		if !plan.Stale || plan.ExpiresAt != plan.VirtualTime {
			t.Fatalf("GET after the check skipped at %s: stale %v, expires_at %s", plan.VirtualTime, plan.Stale, plan.ExpiresAt)
		}
		return
	}
	t.Fatal("72 hours without traffic never skipped a check")
}

func TestForceSolveSpendsTokens(t *testing.T) {
	srv := newTestServer(t, 1)
	register(t, srv, `{"id":"t1","workload":"image-processing","initial_tokens":1.0}`)
	w := do(t, srv, "POST", "/v1/workflows/t1/solve", "")
	if w.Code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[SolveResponse](t, w)
	if resp.PlanVersion < 2 {
		t.Errorf("plan version = %d after forced solve", resp.PlanVersion)
	}
	if resp.Granularity != "hourly" && resp.Granularity != "daily" {
		t.Errorf("granularity = %q", resp.Granularity)
	}
}

func TestStatsAndHealth(t *testing.T) {
	srv := newTestServer(t, 3)
	register(t, srv, `{"workload":"image-processing"}`)
	at := DefaultStart.Add(time.Hour).Format(time.RFC3339)
	do(t, srv, "POST", "/v1/workflows/wf-1/trace", fmt.Sprintf(`{"at":%q,"invocations":5}`, at))
	do(t, srv, "GET", "/v1/workflows/wf-1/plan", "")

	w := do(t, srv, "GET", "/v1/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: status %d", w.Code)
	}
	stats := decode[StatsResponse](t, w)
	if stats.Tenants != 1 || stats.Shards != 3 || stats.Registered != 1 || stats.Deltas != 1 || stats.PlanQueries != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.QueueDepth != 0 {
		t.Errorf("queue depth = %d with nothing in flight", stats.QueueDepth)
	}

	if w := do(t, srv, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("healthz: status %d", w.Code)
	}
}

// TestSimServerMeasuresRealLatency: a nil Config.Clock freezes served_at,
// not the latency instruments — they are telemetry stopwatches on the real clock.
// With telemetry on, a -sim server records non-zero solve and query
// latency, and its response bodies are byte-identical to the bodies of the
// same script with telemetry off.
func TestSimServerMeasuresRealLatency(t *testing.T) {
	script := func() []string {
		srv := newTestServer(t, 2)
		var bodies []string
		for _, rq := range [][3]string{
			{"POST", "/v1/workflows", `{"id":"t1","workload":"text2speech-censoring","initial_tokens":1e9}`},
			{"POST", "/v1/workflows/t1/trace", `{"at":"` + DefaultStart.Add(3*time.Hour).Format(time.RFC3339) + `","invocations":200}`},
			{"POST", "/v1/workflows/t1/solve", ""},
			{"GET", "/v1/workflows/t1/plan?hours=all", ""},
		} {
			w := do(t, srv, rq[0], rq[1], rq[2])
			if w.Code >= 300 {
				t.Fatalf("%s %s: status %d: %s", rq[0], rq[1], w.Code, w.Body.String())
			}
			bodies = append(bodies, w.Body.String())
		}
		return bodies
	}
	off := script()

	rec := telemetry.Enable(telemetry.Options{})
	t.Cleanup(telemetry.Disable)
	on := script()
	for i := range off {
		if on[i] != off[i] {
			t.Errorf("request %d: body differs with telemetry on:\n%s\nvs\n%s", i, on[i], off[i])
		}
	}
	for _, name := range []string{"controlplane.solve_latency_sec", "controlplane.query_latency_sec"} {
		h := rec.Histogram(name, nil)
		if h.Count() == 0 || !(h.Sum() > 0) {
			t.Errorf("%s: %d observations summing to %g s on a frozen served_at clock, want real time", name, h.Count(), h.Sum())
		}
	}
}

// TestSimServerMeasuresQueueWait: controlplane.queue_wait_sec times each
// admitted job from admission until it holds its tenant's lock and a run
// slot, on the real clock — so a -sim server observes one wait per
// registration, delta and forced solve, and none for a plan query.
func TestSimServerMeasuresQueueWait(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	t.Cleanup(telemetry.Disable)
	srv := newTestServer(t, 2)
	for _, rq := range [][3]string{
		{"POST", "/v1/workflows", `{"id":"t1","workload":"text2speech-censoring","initial_tokens":1e9}`},
		{"POST", "/v1/workflows/t1/trace", `{"at":"` + DefaultStart.Add(3*time.Hour).Format(time.RFC3339) + `","invocations":200}`},
		{"POST", "/v1/workflows/t1/solve", ""},
		{"GET", "/v1/workflows/t1/plan", ""},
	} {
		if w := do(t, srv, rq[0], rq[1], rq[2]); w.Code >= 300 {
			t.Fatalf("%s %s: status %d: %s", rq[0], rq[1], w.Code, w.Body.String())
		}
	}
	h := rec.Histogram("controlplane.queue_wait_sec", nil)
	if h.Count() != 3 || !(h.Sum() > 0) {
		t.Errorf("queue_wait_sec: %d observations summing to %g s on a frozen served_at clock, want 3 of real time", h.Count(), h.Sum())
	}
}
