package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// bodyFixture is a one-run-slot server with one registered tenant, "t", and
// what that tenant looked like before the request under test.
type bodyFixture struct {
	srv  *Server
	plan string // GET /plan body, which carries virtual_time
	vnow time.Time
}

func newBodyFixture(t *testing.T) *bodyFixture {
	t.Helper()
	fx := &bodyFixture{srv: newTestServer(t, 1)}
	register(t, fx.srv, `{"id":"t","workload":"image-processing"}`)
	fx.plan, fx.vnow = fx.observe(t)
	return fx
}

func (fx *bodyFixture) observe(t *testing.T) (plan string, vnow time.Time) {
	t.Helper()
	w := do(t, fx.srv, "GET", "/v1/workflows/t/plan", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET plan: status %d: %s", w.Code, w.Body.String())
	}
	tenant, _ := fx.srv.tenant("t")
	return w.Body.String(), tenant.VNow()
}

// check holds one answered request against the contract every body
// decoder shares: no 5xx, a 2xx body is JSON, a refused request — or one
// that is not addressed to tenant "t" — leaves "t" exactly as it was,
// virtual time never runs backwards, and the tenant's next in-horizon
// delta is served.
func (fx *bodyFixture) check(t *testing.T, what string, code int, body []byte, addressedToT bool) {
	t.Helper()
	if code >= 500 {
		t.Fatalf("%s: status %d: %s", what, code, body)
	}
	plan, vnow := fx.observe(t)
	ok := code >= 200 && code < 300
	if ok && !json.Valid(body) {
		t.Fatalf("%s: status %d with a body that is not JSON: %q", what, code, body)
	}
	if !(ok && addressedToT) && (plan != fx.plan || !vnow.Equal(fx.vnow)) {
		t.Fatalf("%s: answered %d but the tenant changed:\nvirtual time %v -> %v\nplan before %safter  %s",
			what, code, fx.vnow, vnow, fx.plan, plan)
	}
	if vnow.Before(fx.vnow) {
		t.Fatalf("%s: virtual time ran backwards: %v -> %v", what, fx.vnow, vnow)
	}
	next := vnow.Add(time.Hour)
	if limit := DefaultStart.Add(horizon); next.After(limit) {
		next = limit
	}
	w := do(t, fx.srv, "POST", "/v1/workflows/t/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, next.Format(time.RFC3339)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s: the next in-horizon delta answers %d: %s", what, w.Code, w.Body.String())
	}
}

// TestMalformedBodiesAnswer400 pins the request-body findings: a delta
// stamped past the carbon horizon used to answer 500 and wedge the tenant
// at that time for good; year 9999 overflowed UnixNano and moved virtual
// time backwards; bytes after the JSON object were ignored; a negative
// initial_tokens registered a tenant that could never plan; and (found by
// FuzzTraceBody's first run) a mean_runtime_sec of 1e308 accrued +Inf
// tokens, which no response could encode — 200 with an empty body.
func TestMalformedBodiesAnswer400(t *testing.T) {
	for _, tc := range []struct{ name, path, body string }{
		{"delta beyond the horizon", "/v1/workflows/t/trace", `{"at":"2200-01-01T00:00:00Z","invocations":10}`},
		{"delta beyond the horizon, no traffic", "/v1/workflows/t/trace", `{"at":"2200-01-01T00:00:00Z"}`},
		{"delta beyond UnixNano", "/v1/workflows/t/trace", `{"at":"9999-01-01T00:00:00Z","invocations":10}`},
		{"delta one second past the horizon", "/v1/workflows/t/trace",
			fmt.Sprintf(`{"at":%q}`, DefaultStart.Add(14*24*time.Hour+time.Second).Format(time.RFC3339))},
		{"trace with trailing bytes", "/v1/workflows/t/trace",
			fmt.Sprintf(`{"at":%q,"invocations":10} x`, DefaultStart.Add(time.Hour).Format(time.RFC3339))},
		{"delta whose tokens overflow", "/v1/workflows/t/trace",
			`{"at":"2023-10-15T01:00:00Z","invocations":9223372036854775807,"mean_runtime_sec":1e308}`},
		{"register with trailing bytes", "/v1/workflows", `{"id":"u","workload":"image-processing"}{}`},
		{"register with negative tokens", "/v1/workflows", `{"id":"u","workload":"image-processing","initial_tokens":-5}`},
		{"solve with trailing bytes", "/v1/workflows/t/solve", `{} x`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newBodyFixture(t)
			w := do(t, fx.srv, "POST", tc.path, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", w.Code, w.Body.String())
			}
			if n := fx.srv.Tenants(); n != 1 {
				t.Errorf("%d tenants registered, want 1", n)
			}
			fx.check(t, tc.name, w.Code, w.Body.Bytes(), true)
		})
	}

	// The horizon's last instant is inside it.
	fx := newBodyFixture(t)
	w := do(t, fx.srv, "POST", "/v1/workflows/t/trace",
		fmt.Sprintf(`{"at":%q,"invocations":10}`, DefaultStart.Add(14*24*time.Hour).Format(time.RFC3339)))
	if w.Code != http.StatusOK {
		t.Errorf("delta at the horizon's end: status %d: %s", w.Code, w.Body.String())
	}
	fx.check(t, "delta at the horizon's end", w.Code, w.Body.Bytes(), true)
}

// FuzzTraceBody posts arbitrary bytes as a trace delta of a freshly
// registered tenant and holds the answer against bodyFixture.check.
func FuzzTraceBody(f *testing.F) {
	f.Add([]byte(`{"at":"2023-10-15T01:00:00Z","invocations":100}`))
	f.Add([]byte(`{"at":"2023-10-16T12:00:00Z","invocations":4000,"class":"large","mean_runtime_sec":2.5}`))
	f.Add([]byte(`{"at":"2023-10-14T00:00:00Z"}`))
	f.Add([]byte(`{"at":"2200-01-01T00:00:00Z","invocations":1}`))
	f.Add([]byte(`{"at":"9999-01-01T00:00:00Z"}`))
	f.Add([]byte(`{"at":"2023-10-15T01:00:00Z","invocations":1} trailing`))
	f.Add([]byte(`{"at":"2023-10-15T01:00:00Z","invocations":-1}`))
	f.Add([]byte(`{"at":"2023-10-15T01:00:00Z","invocations":9223372036854775807,"mean_runtime_sec":1e308}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		fx := newBodyFixture(t)
		w := do(t, fx.srv, "POST", "/v1/workflows/t/trace", string(data))
		fx.check(t, "trace", w.Code, w.Body.Bytes(), true)
	})
}

// FuzzRegisterBody posts arbitrary bytes as a registration beside an
// existing tenant: whatever the answer, that tenant is untouched, and a
// refused registration registers nothing.
func FuzzRegisterBody(f *testing.F) {
	f.Add([]byte(`{"id":"u","workload":"image-processing"}`))
	f.Add([]byte(`{"workload":"dna-visualization","home":"aws:us-west-2","regions":["aws:us-west-2","aws:us-east-1"],"priority":"cost","granularity":"daily","initial_tokens":0.5}`))
	f.Add([]byte(`{"id":"t","workload":"image-processing"}`))
	f.Add([]byte(`{"id":"u","workload":"image-processing","initial_tokens":-5}`))
	f.Add([]byte(`{"id":"u","workload":"image-processing","initial_tokens":1e308}`))
	f.Add([]byte(`{"id":"u","workload":"image-processing"} trailing`))
	f.Add([]byte(`{"id":"u","workload":"image-processing","regions":["aws:us-east-1","aws:us-east-1"]}`))
	f.Add([]byte(`{"id":"a/b","workload":"text2speech-censoring","home":""}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fx := newBodyFixture(t)
		w := do(t, fx.srv, "POST", "/v1/workflows", string(data))
		want := 1
		if w.Code == http.StatusCreated {
			want = 2
		}
		if n := fx.srv.Tenants(); n != want {
			t.Fatalf("status %d left %d tenants registered, want %d", w.Code, n, want)
		}
		fx.check(t, "register", w.Code, w.Body.Bytes(), false)
	})
}
