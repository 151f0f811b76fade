package core

import (
	"fmt"
	"math"

	"caribou/internal/carbon"
	"caribou/internal/platform"
	"caribou/internal/stats"
)

// Summary aggregates per-invocation metrics of an experiment run under one
// transmission-carbon accounting model.
type Summary struct {
	Invocations int
	Succeeded   int
	// Carbon in grams CO2-eq per invocation.
	MeanCarbonG     float64
	MeanExecCarbonG float64
	MeanTxCarbonG   float64
	TotalCarbonG    float64
	// OverheadCarbonG is framework carbon (solves, migrations) amortized
	// into TotalCarbonG when added via AddOverhead.
	OverheadCarbonG float64
	MeanCostUSD     float64
	MeanServiceSec  float64
	P95ServiceSec   float64
}

// Summarize accounts the records under the given transmission model.
// Records are re-accounted, not re-simulated, so one run can be summarized
// under both the best- and worst-case scenarios (§9.1 step 4). One
// platform.Accounts serves the whole pass, so each distinct region is
// resolved to its grid trace and price row once per call.
func (e *Env) Summarize(records []*platform.InvocationRecord, tx carbon.TransmissionModel) (Summary, error) {
	var s Summary
	if len(records) == 0 {
		return s, fmt.Errorf("core: no records to summarize")
	}
	acct := platform.NewAccounts(e.Carbon, e.Cat, e.Book)
	svc := make([]float64, 0, len(records))
	for _, r := range records {
		s.Invocations++
		if r.Succeeded {
			s.Succeeded++
		}
		execG, txG, err := acct.CarbonGrams(r, tx)
		if err != nil {
			return s, err
		}
		s.MeanExecCarbonG += execG
		s.MeanTxCarbonG += txG
		s.MeanCostUSD += acct.CostUSD(r)
		svc = append(svc, r.ServiceTime().Seconds())
	}
	n := float64(s.Invocations)
	s.MeanExecCarbonG /= n
	s.MeanTxCarbonG /= n
	s.MeanCarbonG = s.MeanExecCarbonG + s.MeanTxCarbonG
	s.TotalCarbonG = s.MeanCarbonG * n
	s.MeanCostUSD /= n
	s.MeanServiceSec = stats.Mean(svc)
	p95, err := stats.Percentile(svc, 95)
	if err != nil {
		return s, err
	}
	s.P95ServiceSec = p95
	return s, nil
}

// AddOverhead folds framework carbon overhead (plan generation,
// migration) into the summary's totals and per-invocation mean.
func (s *Summary) AddOverhead(grams float64) {
	if s.Invocations == 0 || grams <= 0 {
		return
	}
	s.OverheadCarbonG = grams
	s.TotalCarbonG += grams
	s.MeanCarbonG = s.TotalCarbonG / float64(s.Invocations)
}

// ExecToTxRatio returns the execution-to-transmission carbon ratio
// (Fig 8's x-axis). It returns +Inf when no transmission carbon accrued.
func (s Summary) ExecToTxRatio() float64 {
	if s.MeanTxCarbonG == 0 {
		return math.Inf(1)
	}
	return s.MeanExecCarbonG / s.MeanTxCarbonG
}
