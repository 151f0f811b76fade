package platform

import (
	"sort"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/pricing"
	"caribou/internal/region"
)

// busyRecord spreads one invocation over three regions: every service map
// has three keys, one transfer stays inside a region and one moves no
// bytes.
func busyRecord(id uint64, at time.Time) *InvocationRecord {
	r := NewInvocationRecord("wf", id, "small")
	r.Start, r.End = at, at.Add(20*time.Second)
	regs := []region.ID{region.USWest2, region.USEast1, region.CACentral1}
	for i, reg := range regs {
		r.Executions = append(r.Executions, ExecutionEvent{
			Node: "n", Region: reg, Start: at.Add(time.Duration(i) * 50 * time.Minute),
			DurationSec: 1.7 + float64(id)/3, MemoryMB: 512 * float64(i+1), CPUUtil: 0.3 + 0.2*float64(i),
		})
		r.Services.SNSPublishes[reg] = i + 1
		r.Services.KVReads[reg] = 2*i + 1
		r.Services.KVWrites[reg] = 3 - i
	}
	r.Transfers = []TransferEvent{
		{Kind: TransferPayload, From: region.USEast1, To: region.CACentral1, Bytes: 3.3e6, At: at.Add(time.Minute)},
		{Kind: TransferKVData, From: region.USWest2, To: region.USWest2, Bytes: 7.1e5, At: at.Add(2 * time.Minute)},
		{Kind: TransferControl, From: region.CACentral1, To: region.USEast1, Bytes: 0, At: at.Add(3 * time.Minute)},
	}
	return r
}

// TestAccountsMatchPerEventLookups prices records event by event through
// the public Source, Catalogue and Book calls — the accounting Accounts
// replaced — and requires the resolve-once rows to give the same bits,
// for a fresh Accounts per record and for one shared across records.
func TestAccountsMatchPerEventLookups(t *testing.T) {
	src, err := carbon.NewSyntheticSource(1, t0, t0.Add(48*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cat := region.NorthAmerica()
	book := pricing.DefaultBook()
	at := func(id region.ID, when time.Time) float64 {
		reg, _ := cat.Get(id)
		v, err := src.At(reg.GridZone, when)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	sorted := func(m map[region.ID]int) []region.ID {
		var ids []region.ID
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}

	for _, tx := range []carbon.TransmissionModel{carbon.BestCase(), carbon.WorstCase()} {
		shared := NewAccounts(src, cat, book)
		for id := uint64(1); id <= 3; id++ {
			r := busyRecord(id, t0.Add(time.Duration(id)*7*time.Hour))
			var execG, txG, cost float64
			for _, e := range r.Executions {
				execG += carbon.ExecutionCarbon(at(e.Region, e.Start), e.MemoryMB, e.DurationSec, e.CPUUtil)
				cost += book.Prices(e.Region).ExecutionCost(e.MemoryMB, e.DurationSec)
			}
			for _, reg := range sorted(r.Services.SNSPublishes) {
				cost += book.SNSCost(reg, r.Services.SNSPublishes[reg])
			}
			for _, reg := range sorted(r.Services.KVReads) {
				cost += book.DynamoCost(reg, r.Services.KVReads[reg], 0)
			}
			for _, reg := range sorted(r.Services.KVWrites) {
				cost += book.DynamoCost(reg, 0, r.Services.KVWrites[reg])
			}
			for _, tr := range r.Transfers {
				txG += tx.Carbon(at(tr.From, tr.At), at(tr.To, tr.At), tr.From == tr.To, tr.Bytes)
				cost += book.EgressCost(tr.From, tr.To, tr.Bytes)
			}

			gotExec, gotTx, err := r.CarbonGrams(src, cat, tx)
			if err != nil || gotExec != execG || gotTx != txG {
				t.Errorf("record %d CarbonGrams = %v, %v (%v), want %v, %v", id, gotExec, gotTx, err, execG, txG)
			}
			if got := NewAccounts(nil, nil, book).CostUSD(r); got != cost {
				t.Errorf("record %d CostUSD = %v, want %v", id, got, cost)
			}
			gotExec, gotTx, err = shared.CarbonGrams(r, tx)
			if err != nil || gotExec != execG || gotTx != txG {
				t.Errorf("record %d shared CarbonGrams = %v, %v (%v), want %v, %v", id, gotExec, gotTx, err, execG, txG)
			}
			if got := shared.CostUSD(r); got != cost {
				t.Errorf("record %d shared CostUSD = %v, want %v", id, got, cost)
			}
		}
	}
}

// TestAccountsErrors: an unknown region fails every time it is seen, not
// only when first resolved, a region missing from the book still prices at
// the fallback row, and an event outside the trace horizon fails.
func TestAccountsErrors(t *testing.T) {
	src, err := carbon.NewSyntheticSource(1, t0, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.DefaultBook()
	a := NewAccounts(src, region.NorthAmerica(), book)

	bad := sampleRecord()
	bad.Executions[1].Region = "aws:nowhere"
	for i := 0; i < 2; i++ {
		if _, _, err := a.CarbonGrams(bad, carbon.BestCase()); err == nil {
			t.Fatalf("pass %d: want error for unknown region", i)
		}
	}
	atFallback := sampleRecord()
	atFallback.Executions[1].Region = region.USEast1
	if got, want := a.CostUSD(bad), NewAccounts(nil, nil, book).CostUSD(atFallback); got != want {
		t.Errorf("cost with an unknown region = %v, want the us-east-1 fallback's %v", got, want)
	}

	late := sampleRecord()
	late.Executions[1].Start = t0.Add(25 * time.Hour)
	if _, _, err := a.CarbonGrams(late, carbon.BestCase()); err == nil {
		t.Error("want error for an execution outside the trace horizon")
	}
	if _, _, err := a.CarbonGrams(sampleRecord(), carbon.BestCase()); err != nil {
		t.Errorf("a good record after failures: %v", err)
	}
}
