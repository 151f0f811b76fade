package controlplane

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// holdJob submits a job on tenant ten (nil: a registration's) that holds
// until release is called, and returns once the job runs; done delivers
// its submit's error.
func holdJob(t *testing.T, srv *Server, ten *Tenant) (release func(), done <-chan error) {
	t.Helper()
	started, hold := make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- srv.submit(ten, func() error {
			close(started)
			<-hold
			return nil
		})
	}()
	<-started
	release = sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release) // before the server's Close, which waits for the job
	return release, errc
}

// waitUntil polls cond until it holds.
func waitUntil(cond func() bool) {
	for !cond() {
		time.Sleep(time.Millisecond) //caribou:allow wallclock test polls real scheduling, not simulated time
	}
}

// TestAdmissionControlShedsOverload pins the 429 path: with a tenant
// admitting one running and one waiting job, and the server two, a full
// tenant and a full server must reject further mutations immediately with
// Retry-After, while plan queries — which never submit — keep serving.
func TestAdmissionControlShedsOverload(t *testing.T) {
	srv, err := New(Config{Shards: 1, QueueDepth: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)
	t1, _ := srv.tenant("t1")

	// One job runs holding t1's lock and the one run slot; a second waits
	// for t1's lock.
	release, running := holdJob(t, srv, t1)
	queued := make(chan error, 1)
	go func() {
		queued <- srv.submit(t1, func() error { return nil })
	}()
	waitUntil(func() bool { return t1.admitted.Load() == 2 })

	// One running + one waiting: t1's next delta is shed.
	at := DefaultStart.Add(time.Hour).Format(time.RFC3339)
	w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, at))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded trace: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if srv.rejections.Load() != 1 {
		t.Errorf("rejections = %d", srv.rejections.Load())
	}
	// Registration (by the server-wide bound) and forced solves shed the
	// same way.
	if w := do(t, srv, "POST", "/v1/workflows", `{"id":"t2","workload":"image-processing"}`); w.Code != http.StatusTooManyRequests {
		t.Errorf("overloaded register: status %d, want 429", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/workflows/t1/solve", ""); w.Code != http.StatusTooManyRequests {
		t.Errorf("overloaded solve: status %d, want 429", w.Code)
	}

	// Lock-free plan reads are unaffected by the backlog.
	if w := do(t, srv, "GET", "/v1/workflows/t1/plan", ""); w.Code != http.StatusOK {
		t.Errorf("plan query during overload: status %d", w.Code)
	}

	// Releasing the running job lets the waiting one run; mutations admit
	// again.
	release()
	if err := <-running; err != nil {
		t.Fatalf("running job failed: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued job failed: %v", err)
	}
	w = do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, at))
	if w.Code != http.StatusOK {
		t.Errorf("trace after drain: status %d: %s", w.Code, w.Body.String())
	}

	// A rejected registration leaves no reservation behind.
	if w := do(t, srv, "POST", "/v1/workflows", `{"id":"t2","workload":"image-processing"}`); w.Code != http.StatusCreated {
		t.Errorf("register after drain: status %d: %s", w.Code, w.Body.String())
	}
}

// TestCloseWaitsForRunningJobs pins shutdown with jobs in flight: Close
// fails the waiting jobs with errClosed, returns only after the running
// one finishes, and rejects every later submit.
func TestCloseWaitsForRunningJobs(t *testing.T) {
	srv, err := New(Config{Shards: 1, QueueDepth: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)
	t1, _ := srv.tenant("t1")
	release, running := holdJob(t, srv, t1)

	// One job waits for t1's lock, one (a registration) for the run slot.
	waiting := make(chan error, 2)
	for _, ten := range []*Tenant{t1, nil} {
		go func() {
			waiting <- srv.submit(ten, func() error {
				t.Error("a job waiting at Close ran")
				return nil
			})
		}()
	}
	waitUntil(func() bool { return srv.waiting.Load() == 2 })
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()

	// The registration fails at once; the other waits for t1's lock.
	if err := <-waiting; !errors.Is(err, errClosed) {
		t.Fatalf("job waiting for a run slot at Close: %v, want errClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job was running")
	default:
	}
	release()
	if err := <-running; err != nil {
		t.Errorf("running job: %v, want it to finish", err)
	}
	<-closed
	if err := <-waiting; !errors.Is(err, errClosed) {
		t.Errorf("job waiting for its tenant at Close: %v, want errClosed", err)
	}
	if err := srv.submit(t1, func() error { return nil }); !errors.Is(err, errClosed) {
		t.Errorf("submit after Close: %v, want errClosed", err)
	}
}

// TestCloseRejectsSubmissions pins shutdown: after Close, every mutation
// fails rather than hangs, with 503 and a Retry-After hint — the server is
// going away, the request was well formed. A refused registration leaves
// its id free.
func TestCloseRejectsSubmissions(t *testing.T) {
	srv, err := New(Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)
	srv.Close()
	at := DefaultStart.Add(time.Hour).Format(time.RFC3339)
	for _, req := range []struct{ name, path, body string }{
		{"register", "/v1/workflows", `{"id":"t2","workload":"image-processing"}`},
		{"register again", "/v1/workflows", `{"id":"t2","workload":"image-processing"}`},
		{"trace", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, at)},
		{"solve", "/v1/workflows/t1/solve", `{}`},
	} {
		w := do(t, srv, "POST", req.path, req.body)
		if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
			t.Errorf("%s after close: status %d, Retry-After %q; want 503 with a hint: %s",
				req.name, w.Code, w.Header().Get("Retry-After"), w.Body.String())
		}
	}
	// Idempotent close.
	srv.Close()
}

// TestBackloggedTenantDoesNotShedOthers pins per-tenant admission: with
// tenant a0 at its bound (one job running, one waiting) and a run slot
// free, a delta of b1 is admitted. The two ids share an FNV(id) mod 2
// bucket, so admission partitioned by id hash would shed b1 with 429.
func TestBackloggedTenantDoesNotShedOthers(t *testing.T) {
	srv, err := New(Config{Shards: 2, QueueDepth: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	register(t, srv, `{"id":"a0","workload":"image-processing"}`)
	register(t, srv, `{"id":"b1","workload":"image-processing"}`)
	a0, _ := srv.tenant("a0")
	release, _ := holdJob(t, srv, a0)
	queued := make(chan error, 1)
	go func() {
		queued <- srv.submit(a0, func() error { return nil })
	}()
	waitUntil(func() bool { return a0.admitted.Load() == 2 })

	at := DefaultStart.Add(time.Hour).Format(time.RFC3339)
	if w := do(t, srv, "POST", "/v1/workflows/a0/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, at)); w.Code != http.StatusTooManyRequests {
		t.Errorf("delta of a0 at its bound: status %d, want 429", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/workflows/b1/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, at)); w.Code != http.StatusOK {
		t.Errorf("delta of b1 beside a0's backlog: status %d, want 200: %s", w.Code, w.Body.String())
	}
	release()
	if err := <-queued; err != nil {
		t.Errorf("queued job of a0: %v", err)
	}
}

// TestServerWideBoundSheds pins the bound on waiting goroutines: with
// Shards: 1, QueueDepth: 1 the server admits two jobs. A held job of a
// and a registration waiting for the run slot fill it, so a delta of b,
// which has nothing of its own in flight, is shed with 429 and
// Retry-After and takes none of b's places.
func TestServerWideBoundSheds(t *testing.T) {
	srv, err := New(Config{Shards: 1, QueueDepth: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	register(t, srv, `{"id":"a","workload":"image-processing"}`)
	register(t, srv, `{"id":"b","workload":"image-processing"}`)
	ta, _ := srv.tenant("a")
	tb, _ := srv.tenant("b")
	release, _ := holdJob(t, srv, ta)
	queued := make(chan error, 1)
	go func() {
		queued <- srv.submit(nil, func() error { return nil })
	}()
	waitUntil(func() bool { return srv.waiting.Load() == 1 })

	at := DefaultStart.Add(time.Hour).Format(time.RFC3339)
	w := do(t, srv, "POST", "/v1/workflows/b/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, at))
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Errorf("delta of b with the server full: status %d, Retry-After %q; want 429 with a hint",
			w.Code, w.Header().Get("Retry-After"))
	}
	if n := tb.admitted.Load(); n != 0 {
		t.Errorf("shed delta left %d of b's places taken", n)
	}
	release()
	if err := <-queued; err != nil {
		t.Errorf("queued registration: %v", err)
	}
	if w := do(t, srv, "POST", "/v1/workflows/b/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, at)); w.Code != http.StatusOK {
		t.Errorf("delta of b after drain: status %d: %s", w.Code, w.Body.String())
	}
}
