// Command caribou-load is the control plane's smoke check: it registers
// one tenant, streams one trace delta, queries the plan, validates the
// plan body, and exits non-zero on any failure — the CI liveness check.
//
// Usage:
//
//	caribou-load [-smoke] [-addr URL]
//
// With -addr the pass targets a running caribou-server (e.g.
// http://localhost:8455); without it the server runs in-process on a
// loopback port of its own. -smoke names the one pass there is and is
// accepted so existing invocations keep working.
//
// Serving throughput and latency are measured by the benchmark harness's
// open-loop serve-read and serve-ingest workloads (benchmark/README.md),
// not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"caribou/internal/controlplane"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	addr := flag.String("addr", "", "target a running caribou-server at this base URL (default: in-process)")
	flag.Bool("smoke", true, "run the register/delta/query liveness pass (the only mode; accepted for compatibility)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: caribou-load [-smoke] [-addr URL]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		return 2
	}

	base := strings.TrimRight(*addr, "/")
	if base == "" {
		srv, err := controlplane.New(controlplane.Config{Shards: 8, QueueDepth: 256, Seed: 1, MaxIterations: 24})
		if err != nil {
			fmt.Fprintf(os.Stderr, "caribou-load: %v\n", err)
			return 1
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		base = ts.URL
	}

	if err := runSmoke(base); err != nil {
		fmt.Fprintf(os.Stderr, "caribou-load: smoke: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "caribou-load: smoke OK")
	return 0
}

// request sends one request (no body when body is empty) and returns the
// status and the response body.
func request(client *http.Client, method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// runSmoke is the CI liveness pass: register one tenant, stream one
// delta, query the plan, and validate the body shape.
func runSmoke(base string) error {
	client := &http.Client{Timeout: 60 * time.Second}
	at := controlplane.DefaultStart.Add(time.Hour).Format(time.RFC3339)
	var body []byte
	for _, step := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"register", "POST", "/v1/workflows", `{"id":"smoke","workload":"image-processing"}`, http.StatusCreated},
		{"trace", "POST", "/v1/workflows/smoke/trace", fmt.Sprintf(`{"at":%q,"invocations":100}`, at), http.StatusOK},
		{"plan", "GET", "/v1/workflows/smoke/plan", "", http.StatusOK},
	} {
		code, got, err := request(client, step.method, base+step.path, step.body)
		if err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
		if code != step.want {
			return fmt.Errorf("%s: status %d: %s", step.name, code, got)
		}
		body = got
	}
	var plan struct {
		Version     int               `json:"version"`
		Granularity string            `json:"granularity"`
		Assignments map[string]string `json:"assignments"`
	}
	if err := json.Unmarshal(body, &plan); err != nil {
		return fmt.Errorf("plan body: %w (%s)", err, body)
	}
	if plan.Version < 1 || len(plan.Assignments) == 0 || plan.Granularity == "" {
		return fmt.Errorf("malformed plan body: %s", body)
	}
	return nil
}
