package controlplane

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// holdJob submits a job on tenant id (ten nil: a registration's) that
// holds until release is called, and returns once the job runs; done
// delivers its submit's error.
func holdJob(t *testing.T, srv *Server, id string, ten *Tenant) (release func(), done <-chan error) {
	t.Helper()
	started, hold := make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- srv.submit(id, ten, func() error {
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

// TestAdmissionControlShedsOverload pins the 429 path: with one partition
// admitting one running and one waiting job, a full partition must reject
// further mutations immediately with Retry-After, while plan queries —
// which never submit — keep serving.
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
	release, running := holdJob(t, srv, "t1", t1)
	queued := make(chan error, 1)
	go func() {
		queued <- srv.submit("t1", t1, func() error { return nil })
	}()
	sh := srv.shards[0]
	waitUntil(func() bool { return sh.waiting.Load() == 1 })

	// One running + one waiting: the next delta is shed.
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
	// Registration and forced solves shed the same way.
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
	release, running := holdJob(t, srv, "t1", t1)

	// One job waits for t1's lock, one (a registration) for the run slot.
	waiting := make(chan error, 2)
	for _, ten := range []*Tenant{t1, nil} {
		go func() {
			waiting <- srv.submit("t1", ten, func() error {
				t.Error("a job waiting at Close ran")
				return nil
			})
		}()
	}
	waitUntil(func() bool { return srv.shards[0].waiting.Load() == 2 })
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
	if err := srv.submit("t1", t1, func() error { return nil }); !errors.Is(err, errClosed) {
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

func TestShardForIsStable(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		a := shardFor("tenant-42", n)
		if a != shardFor("tenant-42", n) {
			t.Fatalf("shardFor unstable at n=%d", n)
		}
		if a < 0 || a >= n {
			t.Fatalf("shardFor out of range: %d of %d", a, n)
		}
	}
}
