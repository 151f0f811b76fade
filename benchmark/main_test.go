package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestJoinTraceValue(t *testing.T) {
	for _, tc := range []struct{ in, want []string }{
		{[]string{"--workload", "plan-day", "--seed", "3", "--seconds", "10", "--trace", "0"}, []string{"--workload", "plan-day", "--seed", "3", "--seconds", "10", "--trace=0"}},
		{[]string{"-trace", "1", "-seed", "2"}, []string{"-trace=1", "-seed", "2"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace", "-seed", "2"}},
		{[]string{"-seed", "2", "-trace"}, []string{"-seed", "2", "-trace"}},
	} {
		if got := joinTraceValue(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("joinTraceValue(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-seconds", "0"}, {"stray"}, {"-no-such-flag"}} {
		var out, errOut bytes.Buffer
		if code := realMain(args, &out, &errOut); code == 0 {
			t.Errorf("realMain(%q) exited 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("realMain(%q) printed a result: %s", args, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, which the driver
// reads, and the harness's own tables in step: same workloads with the
// same reasons, same metric names and units, same run length, and bounds
// inside what the contract allows.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default is %d", decl.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	ws := allWorkloads()
	if len(decl.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, harness has %d", len(decl.Workloads), len(ws))
	}
	for i, w := range ws {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), harness has %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, declared []metricDecl, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, harness has %d", kind, len(declared), len(defs))
		}
		for i, def := range defs {
			d := declared[i]
			if d.Name != def.name || d.Unit != def.unit {
				t.Errorf("%s metric %d: declared %s [%s], harness has %s [%s]", kind, i, d.Name, d.Unit, def.name, def.unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25):
				t.Errorf("%s: an end-to-end metric needs a bound in (0, 0.25]", d.Name)
			case !bounded && d.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
}
