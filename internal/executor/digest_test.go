package executor

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/pubsub"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/workloads"
)

// hashRecord feeds every field of r to h in declaration order, floats by
// their bits, instants by their nanoseconds, service counts by sorted
// region.
func hashRecord(h hash.Hash, r *platform.InvocationRecord) {
	fmt.Fprintf(h, "%s|%d|%s|%d|%d\n", r.Workflow, r.ID, r.InputClass, r.Start.UnixNano(), r.End.UnixNano())
	for _, e := range r.Executions {
		fmt.Fprintf(h, "x|%s|%s|%d|%x|%x|%x|%x|%t\n", e.Node, e.Region, e.Start.UnixNano(),
			math.Float64bits(e.DurationSec), math.Float64bits(e.InitSec), math.Float64bits(e.MemoryMB), math.Float64bits(e.CPUUtil), e.ColdStart)
	}
	for _, tr := range r.Transfers {
		fmt.Fprintf(h, "t|%d|%s|%s|%s|%s|%x|%d\n", tr.Kind, tr.From, tr.To, tr.FromNode, tr.ToNode, math.Float64bits(tr.Bytes), tr.At.UnixNano())
	}
	for _, m := range []map[region.ID]int{r.Services.SNSPublishes, r.Services.KVReads, r.Services.KVWrites} {
		ids := make([]region.ID, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			fmt.Fprintf(h, "s|%s|%d\n", id, m[id])
		}
		fmt.Fprintln(h, "-")
	}
	fmt.Fprintf(h, "%t|%t\n", r.Benchmarked, r.Succeeded)
}

// TestDuplicateDeliveryRecordDigest is the twin of eval's
// TestSimulatorBlobDigests for the one broker setting core and eval cannot
// reach: with one publish in five delivered twice, 200 Text2Speech
// invocations under a plan that splits the workflow across two regions
// must complete with exactly the records — every execution, transfer and
// service count, in order — they had before the hot path resolved names
// once. Duplicates run stages twice, annotate sync edges twice and arrive
// after their invocation finished, so this covers the dedup paths the
// default broker never takes.
func TestDuplicateDeliveryRecordDigest(t *testing.T) {
	sched := simclock.New(testStart)
	cat := region.NorthAmerica()
	p, err := platform.New(platform.Options{
		Sched: sched, Catalogue: cat, Net: netmodel.New(cat), Seed: 42,
		Pubsub: pubsub.Config{DuplicateProb: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := workloads.Text2SpeechCensoring()
	plan := dag.NewHomePlan(wl.DAG, region.USEast1)
	for _, n := range []dag.NodeID{"text2speech", "conversion", "compress"} {
		plan[n] = region.CACentral1
	}
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, wl, ModeCaribou, StaticPlans{Hourly: dag.Uniform(plan)}, &recs)
	for n, r := range plan {
		if _, err := e.EnsureDeployment(n, r); err != nil {
			t.Fatal(err)
		}
	}
	const n = 200
	runInvocations(t, e, sched, n, workloads.Small, time.Minute)
	if len(recs) != n || e.Live() != 0 {
		t.Fatalf("completed %d of %d, %d still live", len(recs), n, e.Live())
	}
	h := sha256.New()
	dupExecs := 0
	for _, r := range recs {
		hashRecord(h, r)
		if len(r.Executions) > wl.DAG.Len() {
			dupExecs++
		}
	}
	if dupExecs == 0 {
		t.Error("no invocation executed a stage twice; duplicate delivery is not being exercised")
	}
	const want = "abe6d9e9a65f092fab77a5041474f7e57326094be1cbbac39cb53f5d7067e166"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("records digest %s, want %s", got, want)
	}
}
