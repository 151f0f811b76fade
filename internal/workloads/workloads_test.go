package workloads

import (
	"math"
	"testing"

	"caribou/internal/dag"
	"caribou/internal/simclock"
)

func TestAllReturnsFiveBenchmarks(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("benchmarks = %d", len(all))
	}
	names := map[string]bool{}
	for _, wl := range all {
		if names[wl.Name] {
			t.Errorf("duplicate name %s", wl.Name)
		}
		names[wl.Name] = true
	}
}

func TestByName(t *testing.T) {
	wl, err := ByName("video-analytics")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name != "video-analytics" {
		t.Errorf("got %s", wl.Name)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("want error for unknown workload")
	}
}

// TestTable1Features checks each benchmark's structural features against
// Table 1: DNA is single-stage; Text2Speech has sync and conditional
// nodes; Video Analytics has sync but no conditional; Image Processing is
// a pure fan-out.
func TestTable1Features(t *testing.T) {
	cases := []struct {
		name       string
		stages     int
		sync, cond bool
	}{
		{"dna-visualization", 1, false, false},
		{"rag-ingestion", 2, false, false},
		{"image-processing", 5, false, false},
		{"text2speech-censoring", 6, true, true},
		{"video-analytics", 6, true, false},
	}
	for _, c := range cases {
		wl, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if wl.DAG.Len() != c.stages {
			t.Errorf("%s: %d stages, want %d", c.name, wl.DAG.Len(), c.stages)
		}
		if got := len(wl.DAG.SyncNodes()) > 0; got != c.sync {
			t.Errorf("%s: sync = %v, want %v", c.name, got, c.sync)
		}
		if got := wl.DAG.HasConditional(); got != c.cond {
			t.Errorf("%s: cond = %v, want %v", c.name, got, c.cond)
		}
	}
}

func TestProfilesCompleteAndPositive(t *testing.T) {
	for _, wl := range All() {
		for _, n := range wl.DAG.Nodes() {
			p := wl.Profile(n)
			for _, class := range Classes() {
				if p.MeanDurationSec[class] <= 0 {
					t.Errorf("%s/%s: non-positive duration for %s", wl.Name, n, class)
				}
			}
			if p.CPUUtil <= 0 || p.CPUUtil > 1 {
				t.Errorf("%s/%s: util %v", wl.Name, n, p.CPUUtil)
			}
			if p.MemoryMB <= 0 {
				t.Errorf("%s/%s: memory %v", wl.Name, n, p.MemoryMB)
			}
		}
		for _, class := range Classes() {
			if wl.EntryBytes[class] <= 0 {
				t.Errorf("%s: entry bytes for %s", wl.Name, class)
			}
			if wl.InputLabel[class] == "" {
				t.Errorf("%s: missing input label for %s", wl.Name, class)
			}
		}
		if wl.ImageBytes <= 0 {
			t.Errorf("%s: image bytes", wl.Name)
		}
		// Terminal stages must declare write-back sizes (storage is
		// pinned at home, §9.1).
		for _, term := range wl.DAG.Terminals() {
			if wl.OutputBytes[term] == nil {
				t.Errorf("%s: terminal %s has no output bytes", wl.Name, term)
			}
		}
	}
}

func TestProfilePanicsOnUnknownNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for unknown node")
		}
	}()
	DNAVisualization().Profile("nope")
}

func TestLargeInputsAreHeavier(t *testing.T) {
	edgeBytes := func(wl *Workload, class InputClass) float64 {
		var sum float64
		for _, b := range wl.EdgeBytes {
			sum += b[class]
		}
		return sum
	}
	for _, wl := range All() {
		if wl.MeanServiceTimeSec(Large) <= wl.MeanServiceTimeSec(Small) {
			t.Errorf("%s: large not slower than small", wl.Name)
		}
		if edgeBytes(wl, Large) < edgeBytes(wl, Small) {
			t.Errorf("%s: large moves less data than small", wl.Name)
		}
	}
}

func TestSampleDurationMeanAndScaling(t *testing.T) {
	wl := DNAVisualization()
	rng := simclock.NewRand(1)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += wl.SampleDuration("visualize", Small, 1.0, rng)
	}
	mean := sum / n
	want := wl.Profile("visualize").MeanDurationSec[Small]
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("sampled mean %.3f, want ~%.3f", mean, want)
	}
	// Performance factor scales linearly.
	var scaled float64
	rng2 := simclock.NewRand(1)
	for i := 0; i < n; i++ {
		scaled += wl.SampleDuration("visualize", Small, 1.5, rng2)
	}
	if r := scaled / sum; math.Abs(r-1.5) > 1e-9 {
		t.Errorf("perf scaling ratio = %v", r)
	}
}

func TestMeanServiceTimeIsCriticalPath(t *testing.T) {
	wl := VideoAnalytics()
	// split + recognize + join (all recognize stages are parallel).
	want := wl.Profile("split").MeanDurationSec[Small] +
		wl.Profile("recognize-a").MeanDurationSec[Small] +
		wl.Profile("join").MeanDurationSec[Small]
	if got := wl.MeanServiceTimeSec(Small); math.Abs(got-want) > 1e-9 {
		t.Errorf("critical path = %v, want %v", got, want)
	}
}

func TestBytesAccessors(t *testing.T) {
	wl := RAGDataIngestion()
	if b := wl.Bytes("extract", "embed", Small); b <= 0 {
		t.Errorf("edge bytes = %v", b)
	}
	if b := wl.Bytes("embed", "extract", Small); b != 0 {
		t.Errorf("reverse edge bytes = %v", b)
	}
}

func TestImageProcessingFanOutStructure(t *testing.T) {
	wl := ImageProcessing()
	out := wl.DAG.Out("ingest")
	if len(out) != 4 {
		t.Fatalf("fan-out = %d", len(out))
	}
	for _, e := range out {
		if len(wl.DAG.Out(e.To)) != 0 {
			t.Errorf("transform %s has successors", e.To)
		}
	}
}

func TestText2SpeechConditionalStructure(t *testing.T) {
	wl := Text2SpeechCensoring()
	var cond []dag.Edge
	for _, e := range wl.DAG.Edges() {
		if e.Conditional {
			cond = append(cond, e)
		}
	}
	if len(cond) != 1 || cond[0].From != "profanity" || cond[0].To != "censor" {
		t.Fatalf("conditional edges = %v", cond)
	}
	if cond[0].Probability != 0.5 {
		t.Errorf("probability = %v", cond[0].Probability)
	}
	if !wl.DAG.IsSync("compress") {
		t.Error("compress should be a sync node")
	}
}

func TestVideoAnalyticsJoinStructure(t *testing.T) {
	wl := VideoAnalytics()
	if got := len(wl.DAG.In("join")); got != 4 {
		t.Errorf("join has %d inputs", got)
	}
	if wl.DAG.Start() != "split" {
		t.Errorf("start = %s", wl.DAG.Start())
	}
}
