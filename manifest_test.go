package caribou

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestLoadManifest(t *testing.T) {
	in := `{
		"home_region": "aws:us-east-1",
		"priority": "carbon",
		"latency_tolerance_pct": 10,
		"allowed_countries": ["US"],
		"adaptive": true,
		"planning_scenario": "worst"
	}`
	cfg, err := LoadManifest(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HomeRegion != "aws:us-east-1" || cfg.Priority != OptimizeCarbon {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.LatencyTolerancePct != 10 || !cfg.Adaptive {
		t.Errorf("cfg = %+v", cfg)
	}
	if len(cfg.AllowedCountries) != 1 || cfg.AllowedCountries[0] != "US" {
		t.Errorf("countries = %v", cfg.AllowedCountries)
	}
	if cfg.PlanningScenario != WorstCaseTransmission {
		t.Errorf("scenario = %v", cfg.PlanningScenario)
	}
}

func TestLoadManifestDefaults(t *testing.T) {
	cfg, err := LoadManifest(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Priority != OptimizeCarbon || cfg.PlanningScenario != BestCaseTransmission {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestLoadManifestErrors(t *testing.T) {
	cases := []string{
		`{"priority": "speed"}`,
		`{"planning_scenario": "median"}`,
		`{"latency_tolerance_pct": -5}`,
		`{"unknown_field": 1}`,
		`{not json`,
	}
	for _, in := range cases {
		if _, err := LoadManifest(strings.NewReader(in)); err == nil {
			t.Errorf("manifest %q accepted", in)
		}
	}
}

// TestLoadManifestTrailingData: json.Decoder.Decode reads one value and
// stops, so the loader checks the rest itself — only whitespace may follow
// the object.
func TestLoadManifestTrailingData(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{`{"home_region":"aws:us-east-1"}`, true},
		{"{\"home_region\":\"aws:us-east-1\"} \n\t\r\n", true},
		{`{"home_region":"aws:us-east-1"} garbage`, false},
		{`{"home_region":"aws:us-east-1"}{"priority":"cost"}`, false},
		{`{} 1`, false},
		{`{} null`, false},
		{`{}]`, false},
		{`{}}`, false},
	} {
		cfg, err := LoadManifest(strings.NewReader(tc.in))
		switch {
		case tc.ok && err != nil:
			t.Errorf("manifest %q rejected: %v", tc.in, err)
		case tc.ok && cfg.HomeRegion != "aws:us-east-1":
			t.Errorf("manifest %q: cfg = %+v", tc.in, cfg)
		case !tc.ok && err == nil:
			t.Errorf("manifest %q accepted", tc.in)
		case !tc.ok && !strings.Contains(err.Error(), "parse manifest"):
			t.Errorf("manifest %q: error %q does not say what failed", tc.in, err)
		}
	}
}

// FuzzLoadManifest: no byte string may panic the manifest loader, and an
// accepted manifest must re-marshal and re-load to an equal config.
func FuzzLoadManifest(f *testing.F) {
	f.Add([]byte(`{
	  "home_region": "aws:us-east-1",
	  "priority": "carbon",
	  "latency_tolerance_pct": 10,
	  "allowed_countries": ["US"],
	  "adaptive": true
	}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"unknown_field": 1}`))
	f.Add([]byte(`{"home_region":"aws:us-east-1"} garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := LoadManifest(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		m, err := decodeManifest(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("LoadManifest accepted what decodeManifest rejects: %v", err)
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not marshal: %v", err)
		}
		again, err := LoadManifest(strings.NewReader(string(out)))
		if err != nil {
			t.Fatalf("re-marshalled manifest %s rejected: %v", out, err)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("round trip changed the config: %+v, then %+v via %s", cfg, again, out)
		}
	})
}

func TestManifestDeploysEndToEnd(t *testing.T) {
	cfg, err := LoadManifest(strings.NewReader(`{
		"priority": "cost",
		"latency_tolerance_pct": 5
	}`))
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, 1)
	app, err := c.Deploy(simpleWorkflow(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Invoke(SmallInput); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if _, err := app.Report(BestCaseTransmission); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRecordsJSONL(t *testing.T) {
	c := newTestClient(t, 1)
	app, err := c.Deploy(simpleWorkflow(), DeploymentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	app.InvokeEvery(time.Hour, 5, SmallInput)
	c.Run()

	var sb strings.Builder
	if err := app.WriteRecords(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5", len(lines))
	}
	var rec map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line not JSON: %v", err)
	}
	if rec["Workflow"] != "simple" {
		t.Errorf("workflow field = %v", rec["Workflow"])
	}
	if _, ok := rec["Executions"]; !ok {
		t.Error("executions missing from record")
	}
}
