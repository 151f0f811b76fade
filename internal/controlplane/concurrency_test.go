package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentSolveAndTraceOnOneTenant drives one tenant from two
// goroutines at once — forced solves on one, trace deltas on the other —
// so every response field a handler reports must be read under the
// tenant's serialization, not after it. Run under -race: a token balance
// read after the job returns races the other goroutine's accrual.
func TestConcurrentSolveAndTraceOnOneTenant(t *testing.T) {
	srv := newTestServer(t, 2)
	register(t, srv, `{"id":"t1","workload":"image-processing","initial_tokens":1e9}`)
	const rounds = 8
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 2*rounds)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if w := do(t, srv, "POST", "/v1/workflows/t1/solve", ""); w.Code != http.StatusOK {
				errs <- fmt.Errorf("solve %d: status %d: %s", i, w.Code, w.Body.String())
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			at := DefaultStart.Add(time.Duration(i+1) * time.Hour).Format(time.RFC3339)
			w := do(t, srv, "POST", "/v1/workflows/t1/trace", fmt.Sprintf(`{"at":%q,"invocations":50}`, at))
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("trace %d: status %d: %s", i, w.Code, w.Body.String())
				continue
			}
			var resp TraceResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.VirtualTime != at {
				errs <- fmt.Errorf("trace %d: virtual_time %q (%v), want its own %s", i, resp.VirtualTime, err, at)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShardMateNotBlockedByHeldJob pins that the tenant is the unit of
// serialization: while a job of tenant a is held, a delta of b completes.
func TestShardMateNotBlockedByHeldJob(t *testing.T) {
	srv := newTestServer(t, 2)
	a, b := "a", "b"
	register(t, srv, `{"id":"a","workload":"image-processing"}`)
	register(t, srv, `{"id":"b","workload":"image-processing"}`)
	ta, _ := srv.tenant(a)
	release, _ := holdJob(t, srv, ta)
	defer release()

	done := make(chan int, 1)
	go func() {
		at := DefaultStart.Add(time.Hour).Format(time.RFC3339)
		done <- do(t, srv, "POST", "/v1/workflows/"+b+"/trace", fmt.Sprintf(`{"at":%q,"invocations":10}`, at)).Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Errorf("delta of %s: status %d", b, code)
		}
	case <-time.After(10 * time.Second): //caribou:allow wallclock bounds a wait on real scheduling
		t.Fatalf("delta of %s waited behind a held job of %s", b, a)
	}
}

// TestTenantJobsNeverOverlap submits many jobs on one tenant at once with
// run slots to spare: they must run one at a time. The plain counter makes
// any overlap a data race under -race as well.
func TestTenantJobsNeverOverlap(t *testing.T) {
	srv, err := New(Config{Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	register(t, srv, `{"id":"t1","workload":"image-processing"}`)
	t1, _ := srv.tenant("t1")
	const jobs = 32
	var inside, overlaps atomic.Int32
	count := 0
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- srv.submit(t1, func() error {
				if inside.Add(1) > 1 {
					overlaps.Add(1)
				}
				count++
				runtime.Gosched()
				inside.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if overlaps.Load() != 0 || count != jobs {
		t.Errorf("%d of %d jobs overlapped another; %d ran", overlaps.Load(), jobs, count)
	}
}
