package controlplane

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// scriptedRequests is a fixed request sequence exercising every endpoint
// whose body must be deterministic: registrations across workloads and
// granularities, interleaved trace deltas (including heartbeats and
// out-of-order timestamps), plan queries (current hour and full set),
// a forced solve, and a US-only tenant whose hourly plans follow the
// carbon forecast.
func scriptedRequests() []struct{ method, path, body string } {
	at := func(h int) string { return DefaultStart.Add(time.Duration(h) * time.Hour).Format(time.RFC3339) }
	return []struct{ method, path, body string }{
		{"POST", "/v1/workflows", `{"id":"alpha","workload":"image-processing"}`},
		{"POST", "/v1/workflows", `{"id":"beta","workload":"text2speech-censoring","granularity":"daily","priority":"cost"}`},
		{"POST", "/v1/workflows", `{"id":"gamma","workload":"dna-visualization","priority":"latency","initial_tokens":0.5}`},
		{"POST", "/v1/workflows/alpha/trace", fmt.Sprintf(`{"at":%q,"invocations":120}`, at(1))},
		{"POST", "/v1/workflows/beta/trace", fmt.Sprintf(`{"at":%q,"invocations":40,"class":"large"}`, at(2))},
		{"POST", "/v1/workflows/gamma/trace", fmt.Sprintf(`{"at":%q,"invocations":300,"mean_runtime_sec":2.5}`, at(3))},
		{"GET", "/v1/workflows/alpha/plan", ""},
		{"POST", "/v1/workflows/alpha/trace", fmt.Sprintf(`{"at":%q,"invocations":0}`, at(8))}, // heartbeat
		{"POST", "/v1/workflows/beta/trace", fmt.Sprintf(`{"at":%q,"invocations":75}`, at(1))}, // out of order
		{"POST", "/v1/workflows/alpha/trace", fmt.Sprintf(`{"at":%q,"invocations":500}`, at(12))},
		{"POST", "/v1/workflows/gamma/solve", ""},
		{"GET", "/v1/workflows/alpha/plan?hours=all", ""},
		{"GET", "/v1/workflows/beta/plan", ""},
		{"GET", "/v1/workflows/gamma/plan", ""},
		{"POST", "/v1/workflows/beta/trace", fmt.Sprintf(`{"at":%q,"invocations":900}`, at(30))},
		{"GET", "/v1/workflows/beta/plan", ""},
		{"POST", "/v1/workflows/gamma/trace", fmt.Sprintf(`{"at":%q,"invocations":250}`, at(16))},
		{"GET", "/v1/workflows/gamma/plan?hours=all", ""},
		{"POST", "/v1/workflows", usOnlyRegister("delta", "text2speech-censoring")},
		{"POST", "/v1/workflows/delta/trace", fmt.Sprintf(`{"at":%q,"invocations":200}`, at(13))},
		{"GET", "/v1/workflows/delta/plan?hours=all", ""},
	}
}

// runScript executes the script against a fresh server with the given
// run-slot count and returns the concatenated status codes and bodies.
func runScript(t *testing.T, shards int) string {
	t.Helper()
	srv := newTestServer(t, shards)
	var out strings.Builder
	for i, req := range scriptedRequests() {
		w := do(t, srv, req.method, req.path, req.body)
		if w.Code >= 500 {
			t.Fatalf("request %d (%s %s): status %d: %s", i, req.method, req.path, w.Code, w.Body.String())
		}
		fmt.Fprintf(&out, "%d %s %s\n%d\n%s", i, req.method, req.path, w.Code, w.Body.String())
	}
	return out.String()
}

// scriptGolden holds the script's shards=1 output; a deliberate change to
// plan content or the budget schedule rewrites it with -update-golden.
const scriptGolden = "testdata/script.golden"

var updateScript = flag.Bool("update-golden", false, "rewrite "+scriptGolden+" from a fresh shards=1 run")

// TestByteReproducibleAcrossRunsAndShardCounts is the integration-level
// determinism guarantee: a server with no Config.Clock produces byte-identical
// response bodies for the same request script, across repeated runs and
// across any run-slot count (Config.Shards), and those bytes are the reviewed ones under
// testdata/. Plan content depends only on tenant seeds and pushed trace
// deltas — never on the serving clock or scheduling.
func TestByteReproducibleAcrossRunsAndShardCounts(t *testing.T) {
	baseline := runScript(t, 1)
	if *updateScript {
		if err := os.WriteFile(scriptGolden, []byte(baseline), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(scriptGolden)
	if err != nil {
		t.Fatal(err)
	}
	if baseline != string(want) {
		t.Fatalf("shards=1 differs from %s:\n--- got ---\n%s\n--- want ---\n%s", scriptGolden, baseline, want)
	}
	if repeat := runScript(t, 1); repeat != baseline {
		t.Fatalf("same shard count, different bytes:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", baseline, repeat)
	}
	for _, shards := range []int{2, 8} {
		if got := runScript(t, shards); got != baseline {
			t.Fatalf("shards=%d produced different bytes:\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s", shards, baseline, shards, got)
		}
	}
}

// TestScriptExercisesSolves guards the script itself: it must trigger at
// least one streamed re-solve so the determinism assertion covers solver
// output, not just static metadata.
func TestScriptExercisesSolves(t *testing.T) {
	out := runScript(t, 2)
	if !strings.Contains(out, `"solved":true`) {
		t.Error("script never triggered a streamed solve")
	}
	if !strings.Contains(out, `"granularity":"hourly"`) && !strings.Contains(out, `"granularity":"daily"`) {
		t.Error("script responses carry no granularity")
	}
	if !strings.Contains(out, `"hours":[`) {
		t.Error("script never fetched the full 24-plan set")
	}
}

// TestTenantSeedStable pins seed derivation: independent of registration
// order and distinct across IDs.
func TestTenantSeedStable(t *testing.T) {
	if TenantSeed(1, "alpha") != TenantSeed(1, "alpha") {
		t.Error("seed not stable")
	}
	if TenantSeed(1, "alpha") == TenantSeed(1, "beta") {
		t.Error("distinct tenants share a seed")
	}
	if TenantSeed(1, "alpha") == TenantSeed(2, "alpha") {
		t.Error("server seed does not mix in")
	}
}
