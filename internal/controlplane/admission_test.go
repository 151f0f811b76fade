package controlplane

import (
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestAdmissionControlShedsOverload pins the 429 path: with a single
// shard whose queue holds one job, a busy worker plus a full queue must
// reject further mutations immediately with Retry-After, while plan
// queries — which never touch a shard — keep serving.
func TestAdmissionControlShedsOverload(t *testing.T) {
	srv, err := New(Config{Shards: 1, QueueDepth: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)

	// Occupy the worker with a job that blocks until released, then fill
	// the one queue slot with a second blocked submitter.
	started := make(chan struct{})
	release := make(chan struct{})
	sh := srv.shards[0]
	go func() {
		_ = sh.submit(func() error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	queued := make(chan error, 1)
	go func() {
		queued <- sh.submit(func() error { return nil })
	}()
	for len(sh.jobs) == 0 {
		time.Sleep(time.Millisecond) //caribou:allow wallclock test polls real scheduling, not simulated time
	}

	// Worker busy + queue full: the next delta is shed.
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

	// Releasing the worker drains the queue; mutations admit again.
	close(release)
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

// TestCloseRejectsSubmissions pins shutdown: after Close, mutations fail
// rather than hang.
func TestCloseRejectsSubmissions(t *testing.T) {
	srv, err := New(Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)
	srv.Close()
	at := DefaultStart.Add(time.Hour).Format(time.RFC3339)
	w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, at))
	if w.Code != http.StatusInternalServerError {
		t.Errorf("trace after close: status %d", w.Code)
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
