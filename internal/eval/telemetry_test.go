package eval

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// TestTelemetryInertFig7 pins the telemetry subsystem's core contract:
// enabling the recorder must not change a single bit of figure output, at
// any worker count. Telemetry only reads simulation state — it never
// draws from RNG streams or perturbs scheduling — so the reduced Fig 7
// rows must be deeply equal with the recorder on and off, the printed
// figure must be the same bytes, and so must the encoded result of the
// fine run, which carries every invocation the solver's hourly plans
// placed. With the recorder on, the exhaustive solves behind those plans
// must have reported their in-solve attribution on the solve span.
func TestTelemetryInertFig7(t *testing.T) {
	if telemetry.Default() != nil {
		t.Fatal("telemetry unexpectedly enabled at test entry")
	}
	fine := RunConfig{Workload: workloads.DNAVisualization(), Class: workloads.Small, PerDay: 48, Seed: 7}
	figure := func(workers int) ([]Fig7Row, []byte, []byte) {
		t.Helper()
		pool := NewPool(workers)
		rows, err := Fig7(fig7TestOptions(pool))
		if err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		PrintFig7(&stdout, rows)
		res, err := pool.Run(fine)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := EncodeResult(fine, res)
		if err != nil {
			t.Fatal(err)
		}
		return rows, stdout.Bytes(), blob
	}
	for _, workers := range []int{1, 8} {
		off, offOut, offBlob := figure(workers)
		rec := telemetry.Enable(telemetry.Options{})
		on, onOut, onBlob := figure(workers)
		records := rec.Records()
		telemetry.Disable()
		if !reflect.DeepEqual(off, on) {
			t.Fatalf("workers=%d: rows differ with telemetry on vs off:\n%+v\nvs\n%+v", workers, off, on)
		}
		if !bytes.Equal(offOut, onOut) {
			t.Errorf("workers=%d: printed figure differs with telemetry on vs off:\n%s\nvs\n%s", workers, offOut, onOut)
		}
		if !bytes.Equal(offBlob, onBlob) {
			t.Errorf("workers=%d: the fine run's encoded result differs with telemetry on vs off", workers)
		}
		var screened, priced, priceNS int64
		for _, r := range records {
			if r.Name != "solver.solve_hourly" {
				continue
			}
			for _, k := range []string{"screened", "priced_cells", "replay_ns", "price_ns", "screen_ns"} {
				if _, ok := r.Attrs[k]; !ok {
					t.Fatalf("workers=%d: solve span lacks attribute %q: %v", workers, k, r.Attrs)
				}
			}
			n, _ := strconv.ParseInt(r.Attrs["screened"], 10, 64)
			screened += n
			n, _ = strconv.ParseInt(r.Attrs["priced_cells"], 10, 64)
			priced += n
			n, _ = strconv.ParseInt(r.Attrs["price_ns"], 10, 64)
			priceNS += n
		}
		if screened == 0 || priced == 0 || priceNS == 0 {
			t.Errorf("workers=%d: solve spans report screened=%d priced_cells=%d price_ns=%d; all should be positive on an exhaustive 24-hour solve", workers, screened, priced, priceNS)
		}
	}
}

// TestTelemetryTraceCoversLayers checks the NDJSON export after a real
// figure run: every line is valid JSON, and the trace carries records or
// instruments from the platform, solver, and pool layers.
func TestTelemetryTraceCoversLayers(t *testing.T) {
	telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	if _, err := Fig7(fig7TestOptions(NewPool(2))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.Default().WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var rec struct {
			Type string `json:"type"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if i := strings.IndexByte(rec.Name, '.'); i > 0 {
			layers[rec.Name[:i]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty trace")
	}
	for _, want := range []string{"platform", "solver", "montecarlo", "executor", "pool"} {
		if !layers[want] {
			t.Errorf("trace has no records or instruments from the %s layer (saw %v)", want, layers)
		}
	}
}

// TestPoolCountersMatchStats checks that the registry counters shadow the
// programmatic PoolStats exactly.
func TestPoolCountersMatchStats(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	pool := NewPool(2)
	if _, err := Fig7(fig7TestOptions(pool)); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	counters := map[string]int{
		"pool.submitted": st.Submitted,
		"pool.executed":  st.Executed,
		"pool.memo_hits": st.Hits,
	}
	for name, want := range counters {
		if got := rec.Counter(name).Value(); got != int64(want) {
			t.Errorf("%s = %d, want %d (PoolStats %+v)", name, got, want, st)
		}
	}
}
