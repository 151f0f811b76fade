package executor

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"caribou/internal/platform"
	"caribou/internal/pubsub"
	"caribou/internal/region"
	"caribou/internal/workloads"
)

// TestSyncAnnotationsDeletedOnFinish: an invocation's sync/<wf>/<inv>/<node>
// entries exist only while it is live. After a drained run of a workflow
// with a synchronization node the store is back to its size before the
// first invocation, in both KV-synchronized modes and with duplicate
// deliveries arriving after their invocation finished.
func TestSyncAnnotationsDeletedOnFinish(t *testing.T) {
	for _, mode := range []Mode{ModeCaribou, ModePlainSNS} {
		for _, dup := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("%s/dup=%v", mode, dup), func(t *testing.T) {
				sched, p := newTestEnvWith(t, platform.Options{Pubsub: pubsub.Config{DuplicateProb: dup}})
				var recs []*platform.InvocationRecord
				e := newEngine(t, p, workloads.VideoAnalytics(), mode, HomeOnly{}, &recs)
				before := p.KV().Len()

				if _, err := e.Invoke(workloads.Small); err != nil {
					t.Fatal(err)
				}
				for p.KV().Len() == before { // the join's sync/ annotation is the only write
					if !sched.Step() {
						t.Fatal("the invocation drained without ever annotating its join")
					}
				}
				if e.Live() != 1 {
					t.Fatalf("%d invocations live while the join is collecting, want 1", e.Live())
				}

				runInvocations(t, e, sched, 40, workloads.Small, 30*time.Second)
				if len(recs) != 41 || e.Live() != 0 {
					t.Fatalf("completed %d of 41, %d live", len(recs), e.Live())
				}
				if after := p.KV().Len(); after != before {
					t.Errorf("KV store holds %d entries after the run, %d before it", after, before)
				}
			})
		}
	}
}

// TestMalformedEnvelopeIsNackedThenDropped: a payload that is not exactly
// one envelope for the receiving stage is refused with an error, so the
// broker redelivers it and finally drops it, and onDrop ignores it; the
// live invocation's record is the one it has without the payload. An
// envelope for an invocation that no longer exists is acknowledged.
func TestMalformedEnvelopeIsNackedThenDropped(t *testing.T) {
	valid := sealEnvelope(1, 0)
	wrongNode := sealEnvelope(1, 3)
	outOfRange := sealEnvelope(1, 1<<20)
	finished := sealEnvelope(99, 0)
	control, _ := envelopeCase(t, false, nil)
	for _, tc := range []struct {
		name    string
		data    []byte
		dropped uint64
	}{
		{"empty", nil, 1},
		{"short", valid[:envelopeLen-1], 1},
		{"over-long", append(valid[:], 0), 1},
		{"json", []byte(`{"inv":1,"node":"validate"}`), 1},
		{"wrong node", wrongNode[:], 1},
		{"node out of range", outOfRange[:], 1},
		{"finished invocation", finished[:], 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			digest, dropped := envelopeCase(t, true, tc.data)
			if dropped != tc.dropped {
				t.Errorf("broker dropped %d messages, want %d", dropped, tc.dropped)
			}
			if digest != control {
				t.Error("the live invocation's record changed")
			}
		})
	}
}

// TestInvocationAllocationBudget guards the per-invocation allocation
// count of the simulator's hot path: one drained Text2Speech invocation
// (six stages, one synchronization node, one conditional edge) stays
// within 70 allocations; it took 206 when every stage rebuilt its topic
// name, JSON-encoded its envelope and boxed its events.
func TestInvocationAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	sched, p := newTestEnv(t)
	done := 0
	e, err := New(Options{
		Platform: p, Workload: workloads.Text2SpeechCensoring(), Home: region.USEast1, Seed: 7,
		OnComplete: func(*platform.InvocationRecord) { done++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployHome(); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		e.InvokeAt(sched.Now().Add(time.Minute), workloads.Small, nil)
		sched.Run()
	})
	if done != runs+1 { // AllocsPerRun warms up with one extra call
		t.Fatalf("completed %d of %d invocations", done, runs+1)
	}
	if allocs > 70 {
		t.Errorf("%.0f allocations per drained invocation, budget 70", allocs)
	}
}

// envelopeCase runs one Text2Speech invocation with data injected on the
// entry stage's topic (through the broker, while the invocation is live)
// and handed to onDrop, and returns the completed records' digest and the
// number of messages the broker dropped.
func envelopeCase(t *testing.T, inject bool, data []byte) (digest string, dropped uint64) {
	t.Helper()
	sched, p := newTestEnv(t)
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, workloads.Text2SpeechCensoring(), ModeCaribou, HomeOnly{}, &recs)
	p.Broker().OnDrop(func(pubsub.Message) { dropped++ })
	if _, err := e.Invoke(workloads.Small); err != nil {
		t.Fatal(err)
	}
	if inject {
		topic := platform.FunctionRef{Workflow: e.wl.Name, Node: "validate", Region: region.USEast1}.Topic()
		if err := p.Broker().PublishAfter(topic, data, 0); err != nil {
			t.Fatal(err)
		}
		e.onDrop(pubsub.Message{Topic: topic, Data: data, Attempt: 5})
	}
	sched.Run()
	if e.Live() != 0 || sched.Step() {
		t.Fatalf("engine did not drain: %d live, events pending", e.Live())
	}
	h := sha256.New()
	for _, r := range recs {
		hashRecord(h, r)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), dropped
}

// FuzzEnvelope delivers arbitrary bytes to a deployed function's topic and
// to the engine's drop callback while an invocation is live. Nothing may
// panic and the engine must drain. Bytes that are not an envelope for the
// receiving stage are nacked until the broker drops them, and the live
// invocation completes with exactly the record it has without them; an
// envelope for an invocation that does not exist is acknowledged. (Bytes
// that do decode to the live invocation's envelope are a legitimate
// duplicate delivery followed by a legitimate drop notice: they change
// the record, as they should.) The seeds are checked in under
// testdata/fuzz/FuzzEnvelope.
func FuzzEnvelope(f *testing.F) {
	var control string
	f.Fuzz(func(t *testing.T, data []byte) {
		if control == "" {
			control, _ = envelopeCase(t, false, nil)
		}
		digest, dropped := envelopeCase(t, true, data)
		id, pos, ok := openEnvelope(data)
		switch {
		case ok && pos == 0 && id == 1:
			return // the live invocation's own entry envelope
		case ok && pos == 0:
			if dropped != 0 {
				t.Errorf("an envelope for unknown invocation %d was dropped, not acknowledged", id)
			}
		default:
			if dropped != 1 {
				t.Errorf("malformed payload %x: broker dropped %d messages, want 1", data, dropped)
			}
		}
		if digest != control {
			t.Errorf("payload %x changed the live invocation's record", data)
		}
	})
}
