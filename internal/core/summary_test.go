package core

import (
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/platform"
	"caribou/internal/region"
)

// summaryRecords is a small run whose accounting touches every branch:
// three regions in each service map, an intra-region transfer and a
// zero-byte one.
func summaryRecords() []*platform.InvocationRecord {
	var recs []*platform.InvocationRecord
	regs := []region.ID{region.USWest2, region.USEast1, region.CACentral1}
	for id := uint64(1); id <= 4; id++ {
		at := evalStart.Add(time.Duration(id) * 9 * time.Hour)
		r := platform.NewInvocationRecord("wf", id, "small")
		r.Start, r.End = at, at.Add(time.Duration(id)*time.Second)
		r.Succeeded = id != 3
		for i, reg := range regs {
			r.Executions = append(r.Executions, platform.ExecutionEvent{
				Node: "n", Region: reg, Start: at.Add(time.Duration(i) * 40 * time.Minute),
				DurationSec: 0.9 + float64(id)/7, MemoryMB: 256 * float64(i+1), CPUUtil: 0.25 * float64(i+1),
			})
			r.Services.SNSPublishes[reg] = int(id) + i
			r.Services.KVReads[reg] = i + 1
			r.Services.KVWrites[reg] = 3 - i
		}
		r.Transfers = []platform.TransferEvent{
			{Kind: platform.TransferPayload, From: region.USEast1, To: region.USWest2, Bytes: 1.1e6 * float64(id), At: at},
			{Kind: platform.TransferKVData, From: region.CACentral1, To: region.CACentral1, Bytes: 4.2e5, At: at.Add(time.Minute)},
			{Kind: platform.TransferControl, From: region.USWest2, To: region.USEast1, At: at.Add(2 * time.Minute)},
		}
		recs = append(recs, r)
	}
	return recs
}

// TestSummarizeEqualsPerRecordSums: the pass that resolves each region
// once for the whole call adds up to the per-record CarbonGrams and
// CostUSD, bit for bit, under both transmission scenarios.
func TestSummarizeEqualsPerRecordSums(t *testing.T) {
	env, err := NewEnv(EnvConfig{Seed: 5, Start: evalStart, End: evalStart.Add(48 * time.Hour), Regions: region.EvaluationFour()})
	if err != nil {
		t.Fatal(err)
	}
	recs := summaryRecords()
	for _, tx := range []carbon.TransmissionModel{carbon.BestCase(), carbon.WorstCase()} {
		var want Summary
		for _, r := range recs {
			execG, txG, err := r.CarbonGrams(env.Carbon, env.Cat, tx)
			if err != nil {
				t.Fatal(err)
			}
			want.MeanExecCarbonG += execG
			want.MeanTxCarbonG += txG
			want.MeanCostUSD += platform.NewAccounts(nil, nil, env.Book).CostUSD(r)
		}
		n := float64(len(recs))
		want.MeanExecCarbonG /= n
		want.MeanTxCarbonG /= n
		want.MeanCostUSD /= n

		got, err := env.Summarize(recs, tx)
		if err != nil {
			t.Fatal(err)
		}
		if got.MeanExecCarbonG != want.MeanExecCarbonG || got.MeanTxCarbonG != want.MeanTxCarbonG || got.MeanCostUSD != want.MeanCostUSD {
			t.Errorf("Summarize = exec %v tx %v cost %v, per-record sums give %v %v %v",
				got.MeanExecCarbonG, got.MeanTxCarbonG, got.MeanCostUSD, want.MeanExecCarbonG, want.MeanTxCarbonG, want.MeanCostUSD)
		}
		if got.Invocations != 4 || got.Succeeded != 3 || got.MeanTxCarbonG <= 0 {
			t.Errorf("summary = %+v", got)
		}
	}

	unknown := summaryRecords()
	unknown[2].Executions[1].Region = "aws:nowhere"
	if _, err := env.Summarize(unknown, carbon.BestCase()); err == nil {
		t.Error("want error for a region outside the catalogue")
	}
	late := summaryRecords()
	late[3].Transfers[0].At = evalStart.Add(30 * 24 * time.Hour)
	if _, err := env.Summarize(late, carbon.BestCase()); err == nil {
		t.Error("want error for a transfer outside the trace horizon")
	}
}
