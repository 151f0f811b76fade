package eval

import (
	"bytes"
	"os"
	"testing"

	"caribou/internal/runstore"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// cacheTestOptions is a small fig7 slice: one workload, one class, so the
// warm-cache tests stay fast while still crossing coarse and fine runs.
func cacheTestOptions(pool *Pool) Fig7Options {
	return Fig7Options{
		Workloads: []*workloads.Workload{workloads.Text2SpeechCensoring()},
		Classes:   []workloads.InputClass{workloads.Small},
		PerDay:    48,
		Pool:      pool,
	}
}

// TestPoolWarmCacheByteIdentity is the tentpole's acceptance property: a
// second process (modeled as a fresh Pool sharing only the store
// directory) re-running the same figure executes zero solver runs and
// prints byte-identical output.
func TestPoolWarmCacheByteIdentity(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	cold := NewPool(2)
	cold.AttachStore(store)
	rows, err := Fig7(cacheTestOptions(cold))
	if err != nil {
		t.Fatal(err)
	}
	var coldOut bytes.Buffer
	PrintFig7(&coldOut, rows)
	cs := cold.Stats()
	if cs.Executed == 0 || cs.DiskWrites != cs.Executed {
		t.Fatalf("cold stats = %+v, want every execution published", cs)
	}

	warm := NewPool(2)
	warm.AttachStore(store)
	rows2, err := Fig7(cacheTestOptions(warm))
	if err != nil {
		t.Fatal(err)
	}
	var warmOut bytes.Buffer
	PrintFig7(&warmOut, rows2)
	ws := warm.Stats()
	if ws.Executed != 0 {
		t.Fatalf("warm run executed %d solver runs, want 0 (stats %+v)", ws.Executed, ws)
	}
	if ws.DiskHits == 0 || ws.Submitted != ws.Hits+ws.DiskHits {
		t.Fatalf("warm stats = %+v, want Submitted == Hits + DiskHits", ws)
	}
	if !bytes.Equal(coldOut.Bytes(), warmOut.Bytes()) {
		t.Fatalf("warm output differs from cold:\ncold:\n%s\nwarm:\n%s", coldOut.String(), warmOut.String())
	}
}

// TestPoolCorruptBlobRecomputed pins the repair path: truncating a cached
// blob turns the next submission into a recompute whose publish heals the
// store.
func TestPoolCorruptBlobRecomputed(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Workload: workloads.ImageProcessing(),
		Class:    workloads.Small,
		Strategy: CoarseIn("aws:us-east-1"),
		PerDay:   48,
	}
	key := runstore.KeyOf(cfg.CanonicalKey())

	cold := NewPool(1)
	cold.AttachStore(store)
	res, err := cold.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(store.Path(key), 10); err != nil {
		t.Fatal(err)
	}

	repair := NewPool(1)
	repair.AttachStore(store)
	res2, err := repair.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := repair.Stats()
	if rs.Executed != 1 || rs.DiskHits != 0 || rs.DiskWrites != 1 {
		t.Fatalf("repair stats = %+v, want one recompute and one publish", rs)
	}
	if store.Stats().Corrupt == 0 {
		t.Fatal("store never classified the truncated blob as corrupt")
	}
	sum1, err := res.Summarize(cfg.withDefaults().PlanTx)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := res2.Summarize(cfg.withDefaults().PlanTx)
	if err != nil {
		t.Fatal(err)
	}
	if sum1 != sum2 {
		t.Fatalf("recomputed summary differs: %+v vs %+v", sum1, sum2)
	}

	// The healed blob now serves a warm hit bit-identically.
	warm := NewPool(1)
	warm.AttachStore(store)
	res3, err := warm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Executed != 0 || s.DiskHits != 1 {
		t.Fatalf("post-repair stats = %+v, want a pure disk hit", s)
	}
	sum3, err := res3.Summarize(cfg.withDefaults().PlanTx)
	if err != nil {
		t.Fatal(err)
	}
	if sum1 != sum3 {
		t.Fatalf("cached summary differs: %+v vs %+v", sum1, sum3)
	}
}

// TestPoolStaleSchemaBlobRecomputed pins the schema bumps: a well-framed
// blob an earlier commit wrote under @v1 or @v2 (the gob payloads, which
// no reader remains for) or @v3 (the current wire format, but results of
// per-event carbon pricing) reads as a miss, is recomputed rather than
// decoded into a new figure, and is overwritten under the current schema.
func TestPoolStaleSchemaBlobRecomputed(t *testing.T) {
	for _, stale := range []string{"caribou/eval.Result@v1", "caribou/eval.Result@v2", "caribou/eval.Result@v3"} {
		if stale == ResultSchema {
			t.Fatal("test must write a schema older than the current one")
		}
		store, err := runstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := RunConfig{
			Workload: workloads.ImageProcessing(),
			Class:    workloads.Small,
			Strategy: CoarseIn("aws:us-east-1"),
			PerDay:   48,
		}
		key := runstore.KeyOf(cfg.CanonicalKey())
		if err := store.Put(key, stale, []byte("results of other draws")); err != nil {
			t.Fatal(err)
		}

		pool := NewPool(1)
		pool.AttachStore(store)
		if _, err := pool.Run(cfg); err != nil {
			t.Fatal(err)
		}
		if s := pool.Stats(); s.Executed != 1 || s.DiskHits != 0 || s.DiskWrites != 1 || s.DiskDecodeErrors != 0 {
			t.Fatalf("%s: stats = %+v, want the blob missed, recomputed and overwritten", stale, s)
		}
		if _, ok, _ := store.Get(key, stale); ok {
			t.Fatalf("the %s blob survived the recompute", stale)
		}
		if _, ok, _ := store.Get(key, ResultSchema); !ok {
			t.Fatalf("%s: no blob under the current schema after the recompute", stale)
		}
	}
}

// TestPoolUndecodableBlobCounted: a blob the store accepts (frame, schema
// tag and checksum intact) whose payload DecodeResult refuses is counted,
// recomputed and overwritten, and the next pool reads the repaired blob.
func TestPoolUndecodableBlobCounted(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Workload: workloads.ImageProcessing(),
		Class:    workloads.Small,
		Strategy: CoarseIn("aws:us-east-1"),
		PerDay:   48,
	}
	key := runstore.KeyOf(cfg.CanonicalKey())
	if err := store.Put(key, ResultSchema, []byte("framed correctly, not a result")); err != nil {
		t.Fatal(err)
	}

	pool := NewPool(1)
	pool.AttachStore(store)
	if _, err := pool.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.DiskDecodeErrors != 1 || s.Executed != 1 || s.DiskHits != 0 || s.DiskWrites != 1 {
		t.Fatalf("stats = %+v, want one decode error, one execution and one publish", s)
	}
	if got := rec.Counter("pool.disk_decode_errors").Value(); got != 1 {
		t.Fatalf("pool.disk_decode_errors = %d, want 1", got)
	}
	if store.Stats().Corrupt != 0 {
		t.Fatal("the store classified a well-framed blob as corrupt")
	}

	warm := NewPool(1)
	warm.AttachStore(store)
	if _, err := warm.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.DiskDecodeErrors != 0 || s.Executed != 0 || s.DiskHits != 1 {
		t.Fatalf("post-repair stats = %+v, want a pure disk hit", s)
	}
}

// TestEncodeDecodeResultRoundTrip pins that a decoded Result reproduces
// the exact summaries of the live one under every accounting window the
// drivers use.
func TestEncodeDecodeResultRoundTrip(t *testing.T) {
	cfg := RunConfig{
		Workload: workloads.Text2SpeechCensoring(),
		Class:    workloads.Small,
		PerDay:   48,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeResult(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(cfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range Scenarios() {
		want, err := res.Summarize(sc.Tx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Summarize(sc.Tx)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("%s summary drifted through the cache: %+v vs %+v", sc.Name, want, got)
		}
	}
	if len(back.App.Records) != len(res.App.Records) || back.Start != res.Start {
		t.Fatalf("decoded shape: %d records start %d, want %d start %d",
			len(back.App.Records), back.Start, len(res.App.Records), res.Start)
	}

	// A spec for a different workload must refuse the blob.
	other := cfg
	other.Workload = workloads.ImageProcessing()
	if _, err := DecodeResult(other, payload); err == nil {
		t.Fatal("decode accepted a blob for the wrong workload")
	}
}
