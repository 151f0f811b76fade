package eval

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fig7-quick.blob from a fresh run")

// goldenConfig is one run of the quick fig7 sweep: Text2Speech, small
// inputs, fine-grained over the four evaluation regions.
func goldenConfig() RunConfig {
	return RunConfig{
		Workload: workloads.Text2SpeechCensoring(),
		Class:    workloads.Small,
		Regions:  region.EvaluationFour(),
		PerDay:   192,
		Seed:     1,
	}
}

const goldenBlob = "testdata/fig7-quick.blob"

// TestGoldenBlob pins both halves of the ResultSchema contract against a
// checked-in payload: the wire format (the file decodes and re-encodes to
// itself) and the draws (a fresh run of the same configuration encodes to
// the same bytes). A change that breaks either must bump ResultSchema and
// regenerate the file with -update-golden.
func TestGoldenBlob(t *testing.T) {
	cfg := goldenConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := EncodeResult(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenBlob, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenBlob)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(cfg, golden)
	if err != nil {
		t.Fatalf("checked-in %s blob no longer decodes: %v", ResultSchema, err)
	}
	if again, err := EncodeResult(cfg, back); err != nil || !bytes.Equal(again, golden) {
		t.Fatalf("checked-in blob does not re-encode to itself (err %v)", err)
	}
	if !bytes.Equal(fresh, golden) {
		t.Fatalf("a fresh run encodes to %d bytes that differ from the checked-in %d: the draws or the format changed without a %s bump",
			len(fresh), len(golden), ResultSchema)
	}
}

// withNilEmptyMaps is r with empty service-count maps replaced by nil, the
// form the decoder produces.
func withNilEmptyMaps(r platform.InvocationRecord) platform.InvocationRecord {
	for _, m := range []*map[region.ID]int{&r.Services.SNSPublishes, &r.Services.KVReads, &r.Services.KVWrites} {
		if len(*m) == 0 {
			*m = nil
		}
	}
	return r
}

// TestCodecRoundTrip: for every workflow, fine and coarse, the decoded
// Result is the live one — records deeply equal, instants identical and in
// UTC, every summary the drivers take bit-equal — and decoded records do
// not share growable storage.
func TestCodecRoundTrip(t *testing.T) {
	wls := append(workloads.All(), workloads.HeavyTailAnalytics())
	for _, wl := range wls {
		for _, strat := range []Strategy{Fine, CoarseIn(region.USEast1)} {
			cfg := RunConfig{Workload: wl, Class: workloads.Small, Strategy: strat, PerDay: 24, Seed: 3}
			name := wl.Name + "/" + strat.String()
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			payload, err := EncodeResult(cfg, res)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			back, err := DecodeResult(cfg, payload)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if back.Start != res.Start || back.App.InvokeErrors != res.App.InvokeErrors || len(back.App.Records) != len(res.App.Records) {
				t.Fatalf("%s: decoded start %d, invoke errors %d, %d records; want %d, %d, %d", name,
					back.Start, back.App.InvokeErrors, len(back.App.Records), res.Start, res.App.InvokeErrors, len(res.App.Records))
			}
			for i, want := range res.App.Records {
				got := back.App.Records[i]
				if !reflect.DeepEqual(withNilEmptyMaps(*want), *got) {
					t.Fatalf("%s: record %d drifted through the codec:\n got %+v\nwant %+v", name, i, *got, *want)
				}
				if got.Start != want.Start || got.End != want.End || got.End.Location() != time.UTC {
					t.Fatalf("%s: record %d instants %v–%v, want %v–%v in UTC", name, i, got.Start, got.End, want.Start, want.End)
				}
			}

			end := EvalStart.Add(48 * time.Hour)
			for _, sc := range Scenarios() {
				want, werr := res.Summarize(sc.Tx)
				got, gerr := back.Summarize(sc.Tx)
				if werr != nil || gerr != nil || want != got {
					t.Fatalf("%s: %s summary %+v (%v), want %+v (%v)", name, sc.Name, got, gerr, want, werr)
				}
				want, werr = res.SummarizeWindow(sc.Tx, end.Add(-12*time.Hour), end.Add(time.Hour))
				got, gerr = back.SummarizeWindow(sc.Tx, end.Add(-12*time.Hour), end.Add(time.Hour))
				if werr != nil || gerr != nil || want != got {
					t.Fatalf("%s: %s window summary %+v (%v), want %+v (%v)", name, sc.Name, got, gerr, want, werr)
				}
			}

			// Records are windows of one slab: growing one must reallocate,
			// not write into the next record's events.
			first, next := back.App.Records[0], back.App.Records[1]
			keep := next.Executions[0]
			if cap(first.Executions) != len(first.Executions) {
				t.Fatalf("%s: record 0 executions have spare capacity %d", name, cap(first.Executions)-len(first.Executions))
			}
			first.Executions = append(first.Executions, platform.ExecutionEvent{Node: "intruder"})
			if next.Executions[0] != keep {
				t.Fatalf("%s: appending to record 0 overwrote record 1", name)
			}
		}
	}
}

// TestEncodeResultDeterministic: one Result has one encoding. Under gob the
// service-count maps were written in iteration order, so re-encodes of a
// result with a two-region map differed.
func TestEncodeResultDeterministic(t *testing.T) {
	cfg := RunConfig{Workload: workloads.Text2SpeechCensoring(), Class: workloads.Small, PerDay: 48}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi := false
	for _, r := range res.App.Records {
		multi = multi || len(r.Services.SNSPublishes) > 1
	}
	if !multi {
		t.Fatal("no record publishes from two regions: the run no longer exercises map ordering")
	}
	first, err := EncodeResult(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := EncodeResult(cfg, res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("re-encode %d differs from the first encoding", i+1)
		}
	}
}

// TestDecodeResultRefusesOtherConfiguration: the header must describe the
// configuration the caller rebuilds the environment from.
func TestDecodeResultRefusesOtherConfiguration(t *testing.T) {
	cfg := RunConfig{Workload: workloads.DNAVisualization(), Class: workloads.Small, Strategy: CoarseIn(region.USEast1), PerDay: 24}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeResult(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*RunConfig){
		"workload": func(c *RunConfig) { c.Workload = workloads.ImageProcessing() },
		"seed":     func(c *RunConfig) { c.Seed = 99 },
		"regions":  func(c *RunConfig) { c.Regions = []region.ID{region.USEast1} },
		"window":   func(c *RunConfig) { c.EvalDays = 3 },
	} {
		other := cfg
		mutate(&other)
		if _, err := DecodeResult(other, payload); err == nil {
			t.Errorf("decode accepted a blob for another %s", name)
		}
	}
	// Every run has the same home and warm-up, so a header naming another
	// one is the blob's edit, not the configuration's.
	for name, mutate := range map[string]func(*resultBlob){
		"home":    func(b *resultBlob) { b.Home = region.USWest2 },
		"warm-up": func(b *resultBlob) { b.WarmupDays = 2 },
	} {
		blob, err := decodeBlob(payload)
		if err != nil {
			t.Fatal(err)
		}
		mutate(blob)
		other, err := encodeBlob(blob)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResult(cfg, other); err == nil {
			t.Errorf("decode accepted a blob for another %s", name)
		}
	}
}

// FuzzDecodeResult feeds DecodeResult arbitrary payloads: it must never
// panic or allocate beyond a small multiple of the payload (every count is
// checked against the bytes that remain first), and a payload it accepts
// is the one EncodeResult writes for the decoded Result. Seeds: the real
// blob and cuts of it here, small payloads under testdata/fuzz.
func FuzzDecodeResult(f *testing.F) {
	cfg := goldenConfig()
	golden, err := os.ReadFile(goldenBlob)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{5, len(golden) / 2, len(golden) - 1} {
		f.Add(golden[:n])
	}
	f.Add(append(append([]byte(nil), golden...), 0))
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := DecodeResult(cfg, payload)
		if err != nil {
			return
		}
		again, err := EncodeResult(cfg, res)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("accepted a %d-byte payload that re-encodes differently (err %v)", len(payload), err)
		}
	})
}

// TestDecodeRejectsNonCanonical spells out the rejections the fuzz target
// relies on, each a one-field edit of a valid payload.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	valid := func() *resultBlob {
		rec := platform.NewInvocationRecord("wf", 7, "small")
		rec.Executions = []platform.ExecutionEvent{
			{Node: "n", Region: region.USEast1, Start: EvalStart},
			{Node: "n", Region: region.USWest2, Start: EvalStart},
		}
		rec.Services.KVReads[region.USEast1] = 1
		rec.Services.KVReads[region.USWest2] = 2
		return &resultBlob{Workload: "wf", Seed: -5, Regions: []region.ID{region.USEast1}, Home: region.USEast1,
			WarmupDays: 1, EvalDays: 1, Records: []*platform.InvocationRecord{rec}}
	}
	payload, err := encodeBlob(valid())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBlob(payload); err != nil {
		t.Fatalf("valid payload refused: %v", err)
	}
	// The payload ends: ... last execution's cold-start byte | 0 transfers |
	// 0 publishes | 2 reads: (east, 1) (west, 2) | 0 writes. Counts are
	// zigzag, so 1 and 2 are the bytes 2 and 4.
	n := len(payload)
	if tail := payload[n-9:]; tail[0] != 0 || tail[1] != 0 || tail[2] != 0 || tail[3] != 2 || tail[5] != 2 || tail[7] != 4 || tail[8] != 0 {
		t.Fatalf("payload tail % x is not the layout this test edits", tail)
	}
	// splice replaces the byte at i with b.
	splice := func(i int, b ...byte) []byte {
		return append(append(append([]byte(nil), payload[:i]...), b...), payload[i+1:]...)
	}
	for name, bad := range map[string][]byte{
		"bad magic":       splice(0, 'X'),
		"gob-era version": splice(4, 2),
		"padded varint":   splice(5, payload[5]|0x80, 0),
		"huge count":      splice(5, 0xff, 0xff, 0xff, 0xff, 0x0f),
		"bool byte":       splice(n-9, 2),
		"unsorted counts": append(append([]byte(nil), payload[:n-5]...), payload[n-3], payload[n-2], payload[n-5], payload[n-4], 0),
		"trailing byte":   append(append([]byte(nil), payload...), 0),
		"truncated":       payload[:n-1],
	} {
		if _, err := decodeBlob(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A first measured record beyond the records would make Summarize
	// slice out of range.
	b := valid()
	b.Start = 2
	if payload, err = encodeBlob(b); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBlob(payload); err == nil {
		t.Error("accepted a first measured record beyond the records")
	}
	// A zoned instant has no exact UTC-nanosecond form.
	b = valid()
	b.Records[0].Start = EvalStart.In(time.FixedZone("x", 3600))
	if _, err := encodeBlob(b); err == nil {
		t.Error("encoded an instant outside UTC")
	}
}
