package executor

import (
	"testing"
	"time"

	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/workloads"
)

// BenchmarkExecutorInvocation is one home-only Text2Speech invocation
// through the engine and the simulated platform, from InvokeAt to the
// completion callback.
func BenchmarkExecutorInvocation(b *testing.B) {
	sched, p := newTestEnv(b)
	done := 0
	e, err := New(Options{
		Platform: p, Workload: workloads.Text2SpeechCensoring(), Home: region.USEast1, Seed: 1,
		OnComplete: func(*platform.InvocationRecord) { done++ },
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.DeployHome(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.InvokeAt(sched.Now().Add(time.Minute), workloads.Small, nil)
		sched.Run()
	}
	if done != b.N {
		b.Fatalf("completed %d of %d", done, b.N)
	}
}
