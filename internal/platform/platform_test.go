package platform

import (
	"math"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/netmodel"
	"caribou/internal/pricing"
	"caribou/internal/pubsub"
	"caribou/internal/region"
	"caribou/internal/simclock"
)

var t0 = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

func newPlatform(t *testing.T) (*simclock.Scheduler, *Platform) {
	t.Helper()
	sched := simclock.New(t0)
	cat := region.NorthAmerica()
	p, err := New(Options{Sched: sched, Catalogue: cat, Net: netmodel.New(cat), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sched, p
}

func TestNewRequiresDependencies(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("want error for missing dependencies")
	}
}

func TestImageRegistry(t *testing.T) {
	_, p := newPlatform(t)
	if p.HasImage("wf", region.USEast1) {
		t.Error("image should not exist")
	}
	if err := p.PushImage("wf", 300e6, region.USEast1); err != nil {
		t.Fatal(err)
	}
	if !p.HasImage("wf", region.USEast1) {
		t.Error("push did not register image")
	}
	if err := p.PushImage("wf", 300e6, "aws:nowhere"); err == nil {
		t.Error("want error for unknown region")
	}

	// Copy replicates without rebuild.
	d, bytes, err := p.CopyImage("wf", region.USEast1, region.CACentral1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 300e6 || d <= 0 {
		t.Errorf("copy bytes=%v dur=%v", bytes, d)
	}
	if !p.HasImage("wf", region.CACentral1) {
		t.Error("copy did not register image")
	}
	// Second copy is free.
	d, bytes, err = p.CopyImage("wf", region.USEast1, region.CACentral1)
	if err != nil || d != 0 || bytes != 0 {
		t.Errorf("re-copy d=%v bytes=%v err=%v", d, bytes, err)
	}
	if _, _, err := p.CopyImage("missing", region.USEast1, region.USWest2); err == nil {
		t.Error("want error when source image missing")
	}
}

func TestDeployRequiresImageAndRole(t *testing.T) {
	_, p := newPlatform(t)
	ref := FunctionRef{Workflow: "wf", Node: "n", Region: region.USEast1}
	if err := p.DeployFunction(ref, func(pubsub.Message) error { return nil }); err == nil {
		t.Error("want error without image")
	}
	if err := p.PushImage("wf", 1e6, region.USEast1); err != nil {
		t.Fatal(err)
	}
	if err := p.DeployFunction(ref, func(pubsub.Message) error { return nil }); err == nil {
		t.Error("want error without IAM role")
	}
	if err := p.EnsureRole("wf", "aws:nowhere"); err == nil {
		t.Error("want error for unknown role region")
	}
	if err := p.EnsureRole("wf", region.USEast1); err != nil {
		t.Fatal(err)
	}
	if !p.HasRole("wf", region.USEast1) {
		t.Error("role not recorded")
	}
	if err := p.DeployFunction(ref, func(pubsub.Message) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !p.IsDeployed(ref) {
		t.Error("deployment not registered")
	}
	p.RemoveFunction(ref)
	if p.IsDeployed(ref) {
		t.Error("removal failed")
	}
}

func TestColdStartLifecycle(t *testing.T) {
	sched, p := newPlatform(t)
	if err := p.PushImage("wf", 500e6, region.USEast1); err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureRole("wf", region.USEast1); err != nil {
		t.Fatal(err)
	}
	ref := FunctionRef{Workflow: "wf", Node: "n", Region: region.USEast1}
	if err := p.DeployFunction(ref, func(pubsub.Message) error { return nil }); err != nil {
		t.Fatal(err)
	}
	first := p.Deployment(ref).ColdStartPenalty(500e6)
	if first <= 0 {
		t.Error("first invocation should be cold")
	}
	warm := p.Deployment(ref).ColdStartPenalty(500e6)
	if warm != 0 {
		t.Errorf("immediate second invocation cold: %v", warm)
	}
	// After a long idle period the environment is reclaimed.
	sched.After(2*time.Hour, func() {})
	sched.Run()
	again := p.Deployment(ref).ColdStartPenalty(500e6)
	if again <= 0 {
		t.Error("post-idle invocation should be cold")
	}
	// Unknown deployment: no penalty bookkeeping.
	if p.Deployment(FunctionRef{Workflow: "x", Node: "y", Region: region.USEast1}).ColdStartPenalty(1e6) != 0 {
		t.Error("unknown deployment should report 0")
	}
}

func TestMessageLatencyIncludesOverheadAndDistance(t *testing.T) {
	_, p := newPlatform(t)
	intra := p.MessageLatency(region.USEast1, region.USEast1, 1e3)
	if intra < SNSPublishOverhead/2 {
		t.Errorf("intra latency %v below publish overhead", intra)
	}
	inter := p.MessageLatency(region.USEast1, region.USWest1, 1e3)
	if inter <= intra {
		t.Errorf("inter (%v) should exceed intra (%v)", inter, intra)
	}
}

func TestKVAccessLatency(t *testing.T) {
	_, p := newPlatform(t)
	local := p.KVAccessLatency(region.USEast1, region.USEast1)
	remote := p.KVAccessLatency(region.USWest1, region.USEast1)
	if local < KVAccessOverhead || remote <= local {
		t.Errorf("local=%v remote=%v", local, remote)
	}
}

func TestPublishThroughPlatform(t *testing.T) {
	sched, p := newPlatform(t)
	got := false
	p.Broker().Subscribe("topic", func(pubsub.Message) error {
		got = true
		return nil
	})
	if err := p.Publish("topic", []byte("x"), 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if !got {
		t.Error("message not delivered")
	}
}

// --- InvocationRecord accounting ---

func sampleRecord() *InvocationRecord {
	r := NewInvocationRecord("wf", 1, "small")
	r.Start = t0
	r.End = t0.Add(10 * time.Second)
	r.Executions = []ExecutionEvent{
		{Node: "a", Region: region.USEast1, Start: t0, DurationSec: 5, MemoryMB: 1769, CPUUtil: 0.8},
		{Node: "b", Region: region.CACentral1, Start: t0.Add(5 * time.Second), DurationSec: 3, MemoryMB: 1024, CPUUtil: 0.6},
	}
	r.Transfers = []TransferEvent{
		{Kind: TransferPayload, From: region.USEast1, To: region.CACentral1, FromNode: "a", ToNode: "b", Bytes: 1e6, At: t0.Add(5 * time.Second)},
		{Kind: TransferOutput, From: region.CACentral1, To: region.USEast1, FromNode: "b", Bytes: 2e6, At: t0.Add(8 * time.Second)},
	}
	r.Services.SNSPublishes[region.USEast1] = 2
	r.Services.KVReads[region.USEast1] = 1
	r.Services.KVWrites[region.USEast1] = 3
	r.Succeeded = true
	return r
}

func TestRecordCostAccounting(t *testing.T) {
	book := pricing.DefaultBook()
	r := sampleRecord()
	got := NewAccounts(nil, nil, book).CostUSD(r)
	want := book.Prices(region.USEast1).ExecutionCost(1769, 5) +
		book.Prices(region.CACentral1).ExecutionCost(1024, 3) +
		book.SNSCost(region.USEast1, 2) +
		book.DynamoCost(region.USEast1, 1, 3) +
		book.EgressCost(region.USEast1, region.CACentral1, 1e6) +
		book.EgressCost(region.CACentral1, region.USEast1, 2e6)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("cost = %v, want %v", got, want)
	}
}

func TestRecordCarbonAccounting(t *testing.T) {
	src, err := carbon.NewSyntheticSource(1, t0, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cat := region.NorthAmerica()
	r := sampleRecord()

	execG, txG, err := r.CarbonGrams(src, cat, carbon.BestCase())
	if err != nil {
		t.Fatal(err)
	}
	if execG <= 0 || txG <= 0 {
		t.Errorf("execG=%v txG=%v", execG, txG)
	}

	// Worst case charges inter-region transfers 5x and intra free;
	// both transfers here are inter-region.
	_, txWorst, err := r.CarbonGrams(src, cat, carbon.WorstCase())
	if err != nil {
		t.Fatal(err)
	}
	if ratio := txWorst / txG; math.Abs(ratio-5) > 1e-9 {
		t.Errorf("worst/best tx ratio = %v, want 5", ratio)
	}

	// Unknown region in record surfaces an error.
	bad := sampleRecord()
	bad.Executions[0].Region = "aws:nowhere"
	if _, _, err := bad.CarbonGrams(src, cat, carbon.BestCase()); err == nil {
		t.Error("want error for unknown region")
	}
}

func TestRecordHelpers(t *testing.T) {
	r := sampleRecord()
	if r.ServiceTime() != 10*time.Second {
		t.Errorf("service time = %v", r.ServiceTime())
	}
	regions := r.RegionsUsed()
	if len(regions) != 2 {
		t.Errorf("regions = %v", regions)
	}
}

// TestDeploymentHandle: the handle resolved once stands for the deployment
// for as long as it exists. Removing the function retires it — it reads
// as not deployed, charges no cold start and keeps no books — while a
// message already published through it still travels the broker's
// no-subscriber → retry path and lands on a re-deployment of the same
// ref, which gets a handle of its own.
func TestDeploymentHandle(t *testing.T) {
	sched, p := newPlatform(t)
	ref := FunctionRef{Workflow: "wf", Node: "n", Region: region.USEast1}
	if p.Deployment(ref).Live() || p.Deployment(ref).ColdStartPenalty(1e6) != 0 {
		t.Error("an undeployed ref has a live handle")
	}
	if err := p.PushImage("wf", 500e6, region.USEast1); err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureRole("wf", region.USEast1); err != nil {
		t.Fatal(err)
	}
	first, second := 0, 0
	if err := p.DeployFunction(ref, func(pubsub.Message) error { first++; return nil }); err != nil {
		t.Fatal(err)
	}
	d := p.Deployment(ref)
	if !d.Live() || !p.IsDeployed(ref) {
		t.Fatal("a deployed ref has no live handle")
	}
	if d.ColdStartPenalty(500e6) <= 0 || d.ColdStartPenalty(500e6) != 0 || p.Deployment(ref).ColdStartPenalty(500e6) != 0 {
		t.Error("want a cold first invocation and warm ones after it, by handle and by ref alike")
	}
	if err := d.Publish([]byte("in flight"), 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	p.RemoveFunction(ref)
	if d.Live() || p.IsDeployed(ref) || p.Deployment(ref) != nil {
		t.Error("a removed deployment still reads as deployed")
	}
	if d.ColdStartPenalty(500e6) != 0 {
		t.Error("a retired handle charged a cold start")
	}
	sched.After(500*time.Millisecond, func() {
		if err := p.DeployFunction(ref, func(pubsub.Message) error { second++; return nil }); err != nil {
			t.Error(err)
		}
	})
	sched.Run()
	if first != 0 || second != 1 {
		t.Errorf("the in-flight message reached the old handler %d times and the new one %d; want 0 and 1", first, second)
	}
	if d.Live() || !p.Deployment(ref).Live() || p.Deployment(ref) == d {
		t.Error("re-deployment must make a new live handle and leave the retired one retired")
	}
	if p.Deployment(ref).ColdStartPenalty(500e6) <= 0 {
		t.Error("the re-deployed function should start cold")
	}
}

func TestFunctionRefTopic(t *testing.T) {
	ref := FunctionRef{Workflow: "wf", Node: dag.NodeID("stage"), Region: region.USWest2}
	if got := ref.Topic(); got != "wf/stage/aws:us-west-2" {
		t.Errorf("topic = %q", got)
	}
}

func TestTransferKindString(t *testing.T) {
	kinds := []TransferKind{TransferPayload, TransferKVData, TransferEntry, TransferOutput, TransferImage, TransferControl}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d string %q duplicated or empty", k, s)
		}
		seen[s] = true
	}
	if TransferKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}
