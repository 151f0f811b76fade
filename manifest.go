package caribou

import (
	"encoding/json"
	"fmt"
	"io"
)

// Manifest is the JSON deployment manifest, the analogue of the paper's
// config.yml (§8): workflow-level objectives, tolerances, the home region,
// and compliance constraints. Function-level constraints live on the
// workflow declaration and supersede these.
//
// Example:
//
//	{
//	  "home_region": "aws:us-east-1",
//	  "priority": "carbon",
//	  "latency_tolerance_pct": 10,
//	  "allowed_countries": ["US"],
//	  "adaptive": true
//	}
type Manifest struct {
	HomeRegion          string   `json:"home_region"`
	Priority            string   `json:"priority"`
	LatencyTolerancePct float64  `json:"latency_tolerance_pct"`
	CostTolerancePct    float64  `json:"cost_tolerance_pct"`
	AllowedRegions      []string `json:"allowed_regions"`
	DisallowedRegions   []string `json:"disallowed_regions"`
	AllowedCountries    []string `json:"allowed_countries"`
	Adaptive            bool     `json:"adaptive"`
	PlanningScenario    string   `json:"planning_scenario"` // "best" or "worst"
}

// LoadManifest parses a JSON deployment manifest into a DeploymentConfig.
// The input must be exactly one JSON object: unknown fields and anything
// but whitespace after the object are errors.
func LoadManifest(r io.Reader) (DeploymentConfig, error) {
	m, err := decodeManifest(r)
	if err != nil {
		return DeploymentConfig{}, err
	}
	return m.Config()
}

func decodeManifest(r io.Reader) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("caribou: parse manifest: %w", err)
	}
	// Decode reads one value and stops; Token skips whitespace and reports
	// io.EOF only when nothing else follows.
	if _, err := dec.Token(); err != io.EOF {
		return m, fmt.Errorf("caribou: parse manifest: unexpected data after the JSON object")
	}
	return m, nil
}

// Config validates the manifest and converts it.
func (m Manifest) Config() (DeploymentConfig, error) {
	cfg := DeploymentConfig{
		HomeRegion:          m.HomeRegion,
		LatencyTolerancePct: m.LatencyTolerancePct,
		CostTolerancePct:    m.CostTolerancePct,
		AllowedRegions:      m.AllowedRegions,
		DisallowedRegions:   m.DisallowedRegions,
		AllowedCountries:    m.AllowedCountries,
		Adaptive:            m.Adaptive,
	}
	switch m.Priority {
	case "", "carbon":
		cfg.Priority = OptimizeCarbon
	case "cost":
		cfg.Priority = OptimizeCost
	case "latency":
		cfg.Priority = OptimizeLatency
	default:
		return cfg, fmt.Errorf("caribou: unknown priority %q (want carbon, cost, or latency)", m.Priority)
	}
	switch m.PlanningScenario {
	case "", "best":
		cfg.PlanningScenario = BestCaseTransmission
	case "worst":
		cfg.PlanningScenario = WorstCaseTransmission
	default:
		return cfg, fmt.Errorf("caribou: unknown planning scenario %q (want best or worst)", m.PlanningScenario)
	}
	if m.LatencyTolerancePct < 0 || m.CostTolerancePct < 0 {
		return cfg, fmt.Errorf("caribou: tolerances must be non-negative")
	}
	return cfg, nil
}
