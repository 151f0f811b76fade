package metrics

import (
	"math"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/stats"
	"caribou/internal/workloads"
)

var t0 = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

func newManager(t *testing.T) (*Manager, *carbon.SyntheticSource) {
	t.Helper()
	wl := workloads.Text2SpeechCensoring()
	cat, err := region.NorthAmerica().Subset(region.EvaluationFour())
	if err != nil {
		t.Fatal(err)
	}
	src, err := carbon.NewSyntheticSource(1, t0.Add(-8*24*time.Hour), t0.Add(8*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return New(wl.DAG, region.USEast1, cat, netmodel.New(cat), src, pricing.DefaultBook()), src
}

// record fabricates an invocation record with one execution per listed
// node at the given region, plus a payload transfer for every DAG edge
// between executed nodes.
func record(id uint64, end time.Time, r region.ID, nodes ...dag.NodeID) *platform.InvocationRecord {
	rec := platform.NewInvocationRecord("text2speech-censoring", id, "small")
	rec.Start = end.Add(-10 * time.Second)
	rec.End = end
	for i, n := range nodes {
		rec.Executions = append(rec.Executions, platform.ExecutionEvent{
			Node: n, Region: r, Start: rec.Start.Add(time.Duration(i) * time.Second),
			DurationSec: 2 + float64(i), MemoryMB: 1024, CPUUtil: 0.7,
		})
	}
	rec.Succeeded = true
	return rec
}

func allNodes() []dag.NodeID {
	return []dag.NodeID{"validate", "text2speech", "conversion", "profanity", "censor", "compress"}
}

func TestIngestBuildsDistributions(t *testing.T) {
	m, _ := newManager(t)
	for i := 0; i < 10; i++ {
		m.Ingest(record(uint64(i), t0.Add(time.Duration(i)*time.Minute), region.USEast1, allNodes()...))
	}
	if len(m.records) != 10 {
		t.Fatalf("window = %d", len(m.records))
	}
	d, err := m.ExecDuration("validate", region.USEast1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 10 {
		t.Errorf("validate samples = %d", d.Len())
	}
	if _, ok := m.exec[execKey{"validate", region.CACentral1}]; ok {
		t.Error("execution data for an unobserved region")
	}
	if u := m.CPUUtil("validate"); math.Abs(u-0.7) > 1e-9 {
		t.Errorf("util = %v", u)
	}
	if mem := m.MemoryMB("validate"); mem != 1024 {
		t.Errorf("memory = %v", mem)
	}
}

func TestExecDurationHomeFallback(t *testing.T) {
	m, _ := newManager(t)
	m.Ingest(record(1, t0, region.USEast1, allNodes()...))
	home, err := m.ExecDuration("validate", region.USEast1)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := m.ExecDuration("validate", region.CACentral1)
	if err != nil {
		t.Fatal(err)
	}
	if remote != home {
		t.Error("unobserved region should fall back to the home distribution")
	}
	if _, err := m.ExecDuration("nonexistent", region.USEast1); err == nil {
		t.Error("want error when not even home data exists")
	}
}

func TestDefaultsWithoutObservations(t *testing.T) {
	m, _ := newManager(t)
	if u := m.CPUUtil("validate"); u != 0.7 {
		t.Errorf("default util = %v", u)
	}
	// DAG declaration supplies memory before any observation.
	if mem := m.MemoryMB("validate"); mem != 512 {
		t.Errorf("declared memory = %v", mem)
	}
	if mem := m.MemoryMB("unknown-node"); mem != 1769 {
		t.Errorf("fallback memory = %v", mem)
	}
}

func TestEdgeProbabilityLearning(t *testing.T) {
	m, _ := newManager(t)
	var condEdge dag.Edge
	for _, e := range m.DAG().Edges() {
		if e.Conditional {
			condEdge = e
		}
	}
	if condEdge.From == "" {
		t.Fatal("no conditional edge in workload")
	}
	// Before enough data: static prior.
	if p := m.EdgeProbability(condEdge); p != condEdge.Probability {
		t.Errorf("prior = %v", p)
	}
	// 30 invocations where censor ran in 24 (p = 0.8).
	for i := 0; i < 24; i++ {
		m.Ingest(record(uint64(i), t0.Add(time.Duration(i)*time.Minute), region.USEast1, allNodes()...))
	}
	for i := 24; i < 30; i++ {
		m.Ingest(record(uint64(i), t0.Add(time.Duration(i)*time.Minute), region.USEast1,
			"validate", "text2speech", "conversion", "profanity", "compress"))
	}
	if p := m.EdgeProbability(condEdge); math.Abs(p-0.8) > 1e-9 {
		t.Errorf("learned probability = %v, want 0.8", p)
	}
	// Unconditional edges are always 1.
	for _, e := range m.DAG().Edges() {
		if !e.Conditional {
			if p := m.EdgeProbability(e); p != 1 {
				t.Errorf("unconditional edge probability = %v", p)
			}
		}
	}
}

func TestWindowAgeEviction(t *testing.T) {
	m, _ := newManager(t)
	m.Ingest(record(1, t0, region.USEast1, "validate"))
	m.Ingest(record(2, t0.Add(31*24*time.Hour), region.USEast1, "validate"))
	if len(m.records) != 1 {
		t.Errorf("window = %d after 30-day eviction", len(m.records))
	}
}

func TestWindowCapWithSelectiveRetention(t *testing.T) {
	m, _ := newManager(t)
	// One early record carries unique DAG info: an execution observed in
	// ca-central-1 that no later record repeats.
	unique := record(0, t0, region.CACentral1, "validate")
	m.Ingest(unique)
	for i := 1; i <= MaxRecords+100; i++ {
		m.Ingest(record(uint64(i), t0.Add(time.Duration(i)*time.Second), region.USEast1, "validate"))
	}
	if len(m.records) > MaxRecords {
		t.Errorf("window = %d exceeds cap %d", len(m.records), MaxRecords)
	}
	found := false
	for _, r := range m.records {
		for _, e := range r.Executions {
			if e.Region == region.CACentral1 {
				found = true
			}
		}
	}
	if !found {
		t.Error("record with unique node-region info was forgotten")
	}
}

func TestInvocationsAndRuntimeSince(t *testing.T) {
	m, _ := newManager(t)
	for i := 0; i < 5; i++ {
		m.Ingest(record(uint64(i), t0.Add(time.Duration(i)*time.Hour), region.USEast1, "validate", "compress"))
	}
	if n := m.InvocationsSince(t0.Add(90 * time.Minute)); n != 3 {
		t.Errorf("invocations since = %d, want 3", n)
	}
	// Each record: validate 2s + compress 3s = 5s.
	if rt := m.MeanRuntimeSince(t0.Add(-time.Hour)); math.Abs(rt-5) > 1e-9 {
		t.Errorf("mean runtime = %v, want 5", rt)
	}
	if rt := m.MeanRuntimeSince(t0.Add(100 * time.Hour)); rt != 0 {
		t.Errorf("empty-period runtime = %v", rt)
	}
}

func TestIgnoresForeignRecords(t *testing.T) {
	m, _ := newManager(t)
	rec := record(1, t0, region.USEast1, "validate")
	rec.Workflow = "other-workflow"
	m.Ingest(rec)
	if len(m.records) != 0 {
		t.Error("foreign workflow record ingested")
	}
	m.Ingest(nil)
	if len(m.records) != 0 {
		t.Error("nil record ingested")
	}
}

func TestTransferLearning(t *testing.T) {
	m, _ := newManager(t)
	rec := record(1, t0, region.USEast1, "validate", "text2speech")
	rec.Transfers = append(rec.Transfers,
		platform.TransferEvent{Kind: platform.TransferPayload, From: region.USEast1, To: region.USEast1, FromNode: "validate", ToNode: "text2speech", Bytes: 1000, At: t0},
		platform.TransferEvent{Kind: platform.TransferEntry, From: region.USEast1, To: region.USEast1, ToNode: "validate", Bytes: 500, At: t0},
		platform.TransferEvent{Kind: platform.TransferOutput, From: region.USEast1, To: region.USEast1, FromNode: "compress", Bytes: 2000, At: t0},
	)
	m.Ingest(rec)
	if d := m.EdgeBytes("validate", "text2speech"); d == nil || stats.Mean(d.SortedValues()) != 1000 {
		t.Errorf("edge bytes = %v", d)
	}
	if d := m.EdgeBytes("validate", "profanity"); d != nil {
		t.Error("unobserved edge should be nil")
	}
	if stats.Mean(m.EntryBytes().SortedValues()) != 500 {
		t.Errorf("entry bytes = %v", stats.Mean(m.EntryBytes().SortedValues()))
	}
	if d := m.OutputBytes("compress"); d == nil || stats.Mean(d.SortedValues()) != 2000 {
		t.Errorf("output bytes = %v", d)
	}
	if d := m.OutputBytes("validate"); d != nil {
		t.Error("unobserved output should be nil")
	}
}

func TestIntensityPastAndForecast(t *testing.T) {
	m, src := newManager(t)
	now := t0.Add(24 * time.Hour)
	past, err := m.IntensityAt(region.USEast1, t0, now)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := src.At("US-MIDA-PJM", t0)
	if past != want {
		t.Errorf("past intensity = %v, want measured %v", past, want)
	}

	// Without a fitted forecaster: persistence fallback.
	fallback, err := m.IntensityAt(region.USEast1, now.Add(5*time.Hour), now)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := src.At("US-MIDA-PJM", now)
	if fallback != cur {
		t.Errorf("fallback = %v, want persistence %v", fallback, cur)
	}

	// With forecasts: a future value that tracks the actual within a
	// loose band.
	if err := m.RefreshForecasts(now); err != nil {
		t.Fatal(err)
	}
	future := now.Add(6 * time.Hour)
	pred, err := m.IntensityAt(region.USEast1, future, now)
	if err != nil {
		t.Fatal(err)
	}
	actual, _ := src.At("US-MIDA-PJM", future)
	if rel := math.Abs(pred-actual) / actual; rel > 0.30 {
		t.Errorf("6h-ahead forecast off by %.0f%%", rel*100)
	}
}

func TestForecastMAPEReasonable(t *testing.T) {
	m, _ := newManager(t)
	mape, err := m.ForecastMAPE(region.CACentral1, t0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if mape <= 0 || mape > 40 {
		t.Errorf("24h MAPE = %.2f%%, want modest positive value", mape)
	}
	long, err := m.ForecastMAPE(region.USWest1, t0, 7*24)
	if err != nil {
		t.Fatal(err)
	}
	if long <= 0 || long > 80 {
		t.Errorf("7d MAPE = %.2f%%", long)
	}
}

func TestKVAndMessageModelAccessors(t *testing.T) {
	m, _ := newManager(t)
	if s := m.KVAccessSeconds(region.USEast1); s <= 0 || s > 0.05 {
		t.Errorf("local KV access = %vs", s)
	}
	if m.KVAccessSeconds(region.USWest1) <= m.KVAccessSeconds(region.USEast1) {
		t.Error("remote KV access should exceed local")
	}
	if m.MessageOverheadSeconds() <= 0 {
		t.Error("message overhead must be positive")
	}
	if m.TransferSeconds(region.USEast1, region.USWest1, 1e6) <= 0 {
		t.Error("transfer seconds must be positive")
	}
	if m.CostBook() == nil || m.Catalogue() == nil || m.DAG() == nil {
		t.Error("nil accessors")
	}
	if m.Home() != region.USEast1 {
		t.Errorf("home = %v", m.Home())
	}
	if ids := m.Catalogue().IDs(); len(ids) != 4 {
		t.Errorf("regions = %v", ids)
	}
}

func TestRefreshForecastsAllZones(t *testing.T) {
	m, _ := newManager(t)
	if err := m.RefreshForecasts(t0.Add(24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(m.forecasters) < 4 {
		t.Errorf("forecasters for %d zones", len(m.forecasters))
	}
}

func TestWindowSizeStressMany(t *testing.T) {
	m, _ := newManager(t)
	for i := 0; i < 2*MaxRecords; i++ {
		m.Ingest(record(uint64(i), t0.Add(time.Duration(i)*time.Second), region.USEast1, "validate"))
	}
	if len(m.records) > MaxRecords {
		t.Fatalf("window %d over cap", len(m.records))
	}
	// Distributions stay bounded too.
	d, err := m.ExecDuration("validate", region.USEast1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() > 2000 {
		t.Errorf("distribution grew unbounded: %d", d.Len())
	}
}
