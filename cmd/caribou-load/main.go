// Command caribou-load drives the control plane with thousands of
// concurrent simulated tenants: each registers a workflow, streams trace
// deltas, and queries its plan. It reports p99 plan-query latency, solver
// throughput, and admission-rejection counts as go-test benchmark lines
// on stdout (rates and counts are encoded in the ns/op slot; the label
// says which is which).
//
// Usage:
//
//	caribou-load [-tenants N] [-deltas N] [-queries N] [-workers N]
//	             [-addr URL | -shards N -queue-depth N] [-seed N]
//	             [-solve-iterations N] [-smoke]
//
// With -addr the generator targets a running caribou-server over HTTP
// (e.g. http://localhost:8455); without it the server runs in-process and
// requests go straight through its handler, which removes socket overhead
// from the measurement. -smoke runs a single register → delta → query
// sequence, validates the plan body, and exits non-zero on any failure —
// the CI liveness check.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"caribou/internal/controlplane"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	tenants := flag.Int("tenants", 10000, "concurrent simulated tenants")
	deltas := flag.Int("deltas", 3, "trace deltas streamed per tenant")
	queries := flag.Int("queries", 5, "plan queries per tenant")
	workers := flag.Int("workers", 64, "driver goroutines")
	addr := flag.String("addr", "", "target a running caribou-server at this base URL (default: in-process)")
	shards := flag.Int("shards", 8, "in-process server shards")
	queueDepth := flag.Int("queue-depth", 256, "in-process server queue depth")
	seed := flag.Int64("seed", 1, "in-process server seed")
	solveIters := flag.Int("solve-iterations", 24, "in-process HBSS iteration cap per solve")
	smoke := flag.Bool("smoke", false, "single register/delta/query liveness pass; exit non-zero on failure")
	flag.Parse()

	var doer requestDoer
	if *addr != "" {
		doer = &httpDoer{base: strings.TrimRight(*addr, "/"), client: &http.Client{Timeout: 60 * time.Second}}
	} else {
		srv, err := controlplane.New(controlplane.Config{
			Shards: *shards, QueueDepth: *queueDepth, Seed: *seed, MaxIterations: *solveIters,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "caribou-load: %v\n", err)
			return 1
		}
		defer srv.Close()
		doer = &inprocDoer{srv: srv}
	}

	if *smoke {
		if err := runSmoke(doer); err != nil {
			fmt.Fprintf(os.Stderr, "caribou-load: smoke: %v\n", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "caribou-load: smoke OK")
		return 0
	}
	return runLoad(doer, *tenants, *deltas, *queries, *workers)
}

// requestDoer abstracts the transport: in-process handler or real HTTP.
type requestDoer interface {
	do(method, path, body string) (int, http.Header, []byte, error)
}

type inprocDoer struct{ srv *controlplane.Server }

func (d *inprocDoer) do(method, path, body string) (int, http.Header, []byte, error) {
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	d.srv.ServeHTTP(w, req)
	return w.Code, w.Header(), w.Body.Bytes(), nil
}

type httpDoer struct {
	base   string
	client *http.Client
}

func (d *httpDoer) do(method, path, body string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// runSmoke is the CI liveness pass: register one tenant, stream one
// delta, query the plan, and validate the body shape.
func runSmoke(doer requestDoer) error {
	code, _, body, err := doer.do("POST", "/v1/workflows", `{"id":"smoke","workload":"image-processing"}`)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if code != http.StatusCreated {
		return fmt.Errorf("register: status %d: %s", code, body)
	}
	at := controlplane.DefaultStart.Add(time.Hour).Format(time.RFC3339)
	code, _, body, err = doer.do("POST", "/v1/workflows/smoke/trace", fmt.Sprintf(`{"at":%q,"invocations":100}`, at))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("trace: status %d: %s", code, body)
	}
	code, _, body, err = doer.do("GET", "/v1/workflows/smoke/plan", "")
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("plan: status %d: %s", code, body)
	}
	var plan struct {
		Version     int               `json:"version"`
		Granularity string            `json:"granularity"`
		Assignments map[string]string `json:"assignments"`
		Stale       bool              `json:"stale"`
	}
	if err := json.Unmarshal(body, &plan); err != nil {
		return fmt.Errorf("plan body: %w (%s)", err, body)
	}
	if plan.Version < 1 || len(plan.Assignments) == 0 || plan.Granularity == "" {
		return fmt.Errorf("malformed plan body: %s", body)
	}
	return nil
}

// workerStats accumulates one driver goroutine's measurements.
type workerStats struct {
	registerNs []float64
	deltaNs    []float64
	queryNs    []float64
	rejections int64
	errors     int64
}

// runLoad fans the tenant population across driver goroutines and prints
// benchmark lines.
func runLoad(doer requestDoer, tenants, deltas, queries, workers int) int {
	if workers > tenants {
		workers = tenants
	}
	jobs := make(chan int, workers)
	stats := make([]workerStats, workers)
	var wg sync.WaitGroup
	started := time.Now() //caribou:allow wallclock load generator measures real serving latency, not simulated time
	for w := 0; w < workers; w++ {
		wg.Add(1)
		st := &stats[w]
		//caribou:allow goroutines load-generator worker pool drives concurrent tenants by design
		go func() {
			defer wg.Done()
			for i := range jobs {
				driveTenant(doer, i, deltas, queries, st)
			}
		}()
	}
	for i := 0; i < tenants; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(started) //caribou:allow wallclock load generator measures real serving latency, not simulated time

	var all workerStats
	for i := range stats {
		all.registerNs = append(all.registerNs, stats[i].registerNs...)
		all.deltaNs = append(all.deltaNs, stats[i].deltaNs...)
		all.queryNs = append(all.queryNs, stats[i].queryNs...)
		all.rejections += stats[i].rejections
		all.errors += stats[i].errors
	}

	// Solver throughput: completed solves per second of wall time,
	// reported as ns-per-solve so lower is better, like every other
	// benchmark line.
	var solves int64
	if code, _, body, err := doer.do("GET", "/v1/stats", ""); err == nil && code == http.StatusOK {
		var s struct {
			Solves int64 `json:"solves"`
		}
		if json.Unmarshal(body, &s) == nil {
			solves = s.Solves
		}
	}

	fmt.Printf("BenchmarkControlPlane/register_mean 1 %.0f ns/op\n", mean(all.registerNs))
	fmt.Printf("BenchmarkControlPlane/trace_delta_mean 1 %.0f ns/op\n", mean(all.deltaNs))
	fmt.Printf("BenchmarkControlPlane/plan_query_p50 1 %.0f ns/op\n", percentile(all.queryNs, 0.50))
	fmt.Printf("BenchmarkControlPlane/plan_query_p99 1 %.0f ns/op\n", percentile(all.queryNs, 0.99))
	if solves > 0 {
		fmt.Printf("BenchmarkControlPlane/solve 1 %.0f ns/op\n", float64(elapsed.Nanoseconds())/float64(solves))
	}
	// Counts ride in the ns/op slot; the label marks them as counts.
	fmt.Printf("BenchmarkControlPlane/rejected_count 1 %d ns/op\n", all.rejections)

	fmt.Fprintf(os.Stderr, "caribou-load: %d tenants, %d deltas+%d queries each in %v (%d solves, %.0f solves/sec, %d rejections, %d errors)\n",
		tenants, deltas, queries, elapsed.Round(time.Millisecond), solves, float64(solves)/elapsed.Seconds(), all.rejections, all.errors)
	if all.errors > 0 {
		return 1
	}
	return 0
}

// driveTenant runs one tenant's scripted life: register, stream deltas,
// interleave plan queries. Admission rejections back off briefly and
// retry; persistent failures count as errors.
func driveTenant(doer requestDoer, idx, deltas, queries int, st *workerStats) {
	id := fmt.Sprintf("load-%d", idx)
	body := fmt.Sprintf(`{"id":%q,"workload":"image-processing"}`, id)
	if !timedRequest(doer, "POST", "/v1/workflows", body, http.StatusCreated, &st.registerNs, st) {
		return
	}
	issued := 0
	perDelta := queries / max(deltas, 1)
	for d := 0; d < deltas; d++ {
		at := controlplane.DefaultStart.Add(time.Duration(d+1) * time.Hour).Format(time.RFC3339)
		delta := fmt.Sprintf(`{"at":%q,"invocations":200}`, at)
		timedRequest(doer, "POST", "/v1/workflows/"+id+"/trace", delta, http.StatusOK, &st.deltaNs, st)
		for q := 0; q < perDelta; q++ {
			timedRequest(doer, "GET", "/v1/workflows/"+id+"/plan", "", http.StatusOK, &st.queryNs, st)
			issued++
		}
	}
	for ; issued < queries; issued++ {
		timedRequest(doer, "GET", "/v1/workflows/"+id+"/plan", "", http.StatusOK, &st.queryNs, st)
	}
}

// timedRequest issues one request, retrying 429s with a short backoff,
// and appends its latency to lat. It reports whether the request finally
// succeeded with the wanted status.
func timedRequest(doer requestDoer, method, path, body string, want int, lat *[]float64, st *workerStats) bool {
	for attempt := 0; ; attempt++ {
		start := time.Now() //caribou:allow wallclock load generator measures real serving latency, not simulated time
		code, _, _, err := doer.do(method, path, body)
		dur := time.Since(start) //caribou:allow wallclock load generator measures real serving latency, not simulated time
		if err != nil {
			st.errors++
			return false
		}
		if code == http.StatusTooManyRequests {
			st.rejections++
			if attempt >= 50 {
				st.errors++
				return false
			}
			time.Sleep(time.Duration(attempt+1) * time.Millisecond) //caribou:allow wallclock admission-control backoff against a live server
			continue
		}
		*lat = append(*lat, float64(dur.Nanoseconds()))
		if code != want {
			st.errors++
			return false
		}
		return true
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
