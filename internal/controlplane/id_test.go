package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"unicode/utf8"
)

// idRoutes drives the three {id} routes of one workflow by the path a
// client builds for it, url.PathEscape(id), and returns the status codes.
func idRoutes(t *testing.T, srv *Server, id string) (plan, trace, solve int) {
	t.Helper()
	base := "/v1/workflows/" + url.PathEscape(id)
	plan = do(t, srv, "GET", base+"/plan", "").Code
	trace = do(t, srv, "POST", base+"/trace", `{"at":"2023-10-15T01:00:00Z","invocations":10}`).Code
	solve = do(t, srv, "POST", base+"/solve", "").Code
	return plan, trace, solve
}

// TestGeneratedIDSkipsTakenOnes: a client that names no id is never told
// its id is taken. A generated wf-<n> used to collide with an explicit one
// and answer 409.
func TestGeneratedIDSkipsTakenOnes(t *testing.T) {
	srv := newTestServer(t, 1)
	register(t, srv, `{"id":"wf-1","workload":"image-processing"}`)
	register(t, srv, `{"id":"wf-2","workload":"image-processing"}`)
	got := register(t, srv, `{"workload":"image-processing"}`)
	if got.ID != "wf-3" {
		t.Errorf("anonymous registration got id %q, want wf-3", got.ID)
	}
	if plan, _, _ := idRoutes(t, srv, got.ID); plan != http.StatusOK {
		t.Errorf("GET plan of %q: status %d", got.ID, plan)
	}
}

// TestUnaddressableIDsRefused: "." and ".." used to register with 201 and
// then answer 301 on every {id} route, and "/" (FuzzWorkflowID's first
// finding) 404 — a tenant nobody could reach that still held memory; an id
// of any length used to become a map key.
func TestUnaddressableIDsRefused(t *testing.T) {
	srv := newTestServer(t, 1)
	long := strings.Repeat("x", 64<<10)
	for _, id := range []string{".", "..", "/", long, long[:MaxWorkflowIDLen+1]} {
		body, _ := json.Marshal(RegisterRequest{ID: id, Workload: "image-processing"})
		w := do(t, srv, "POST", "/v1/workflows", string(body))
		if w.Code != http.StatusBadRequest {
			t.Errorf("registering a %d-byte id %.8q: status %d, want 400", len(id), id, w.Code)
		}
	}
	if n := srv.Tenants(); n != 0 {
		t.Errorf("%d tenants registered by refused requests", n)
	}
	// The bound itself, and ids that only look like trouble, are served.
	for _, id := range []string{long[:MaxWorkflowIDLen], "...", "a/b", "//", "a/../b", "%2e", " ", "wf 1?x#y"} {
		body, _ := json.Marshal(RegisterRequest{ID: id, Workload: "image-processing"})
		register(t, srv, string(body))
		if plan, trace, solve := idRoutes(t, srv, id); plan != http.StatusOK || trace != http.StatusOK || solve >= 500 || solve == http.StatusNotFound {
			t.Errorf("id %q: plan %d, trace %d, solve %d", id, plan, trace, solve)
		}
	}
}

// FuzzWorkflowID registers an arbitrary id beside tenant "t" and then
// addresses the three {id} routes by its escaped path: nothing answers
// 5xx, a registered id is reachable on every route, a refused one is served
// on none, and "t" is untouched by all of it.
func FuzzWorkflowID(f *testing.F) {
	for _, id := range []string{"u", "t", "", "wf-1", ".", "..", "...", "a/b", "/", "../t", "%2e%2e", "a b", "é", "\x00", "\xff", "?", "#", strings.Repeat("x", MaxWorkflowIDLen+1)} {
		f.Add(id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		fx := newBodyFixture(t)
		body, _ := json.Marshal(RegisterRequest{ID: id, Workload: "image-processing"})
		w := do(t, fx.srv, "POST", "/v1/workflows", string(body))
		registered := w.Code == http.StatusCreated
		if registered {
			id = decode[RegisterResponse](t, w).ID // generated, or with invalid UTF-8 replaced
		}
		// The fixture's own tenant, the collection path and a byte string no
		// JSON body can carry name no second tenant to address.
		if id != "t" && id != "" && utf8.ValidString(id) {
			plan, trace, solve := idRoutes(t, fx.srv, id)
			what := fmt.Sprintf("id %q (registration %d): plan %d, trace %d, solve %d", id, w.Code, plan, trace, solve)
			if plan >= 500 || trace >= 500 || solve >= 500 {
				t.Fatalf("%s: 5xx", what)
			}
			if registered && (plan != http.StatusOK || trace != http.StatusOK || solve == http.StatusNotFound) {
				t.Fatalf("%s: a registered id is not reachable by its escaped path", what)
			}
			if !registered && (plan/100 == 2 || trace/100 == 2 || solve/100 == 2) {
				t.Fatalf("%s: a refused id is served", what)
			}
		}
		fx.check(t, "register", w.Code, w.Body.Bytes(), false)
	})
}
