package runstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"caribou/internal/telemetry"
)

const testSchema = "runstore/test@v1"

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePutGetRoundTrip(t *testing.T) {
	writes := telemetry.Enable(telemetry.Options{}).Counter("runstore.writes")
	t.Cleanup(telemetry.Disable)
	s := openTestStore(t)
	key := KeyOf("wl=x|class=small|seed=17")
	payload := []byte("the result payload \x00 with binary\xff bytes")
	if _, ok, err := s.Get(key, testSchema); ok || err != nil {
		t.Fatalf("Get before Put: ok=%v err=%v", ok, err)
	}
	if err := s.Put(key, testSchema, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key, testSchema)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 || writes.Value() != 1 {
		t.Fatalf("stats = %+v, runstore.writes = %d", st, writes.Value())
	}
}

func TestStoreEmptyPayload(t *testing.T) {
	s := openTestStore(t)
	key := KeyOf("empty")
	if err := s.Put(key, testSchema, nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key, testSchema)
	if err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty payload: got=%q ok=%v err=%v", got, ok, err)
	}
}

// TestStoreTruncatedBlob pins the corruption contract for a blob cut
// short mid-payload (the shape a killed non-atomic writer would leave —
// here simulated by truncating a published object): Get must classify it
// as corrupt, report a miss, and a subsequent Put must repair it.
func TestStoreTruncatedBlob(t *testing.T) {
	s := openTestStore(t)
	key := KeyOf("truncate-me")
	payload := bytes.Repeat([]byte("abcdefgh"), 64)
	if err := s.Put(key, testSchema, payload); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{0, 4, info.Size() / 2, info.Size() - 1} {
		if err := os.Truncate(s.Path(key), size); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(key, testSchema); ok || err != nil {
			t.Fatalf("truncated to %d bytes: ok=%v err=%v (want miss)", size, ok, err)
		}
	}
	if got := s.Stats().Corrupt; got != 4 {
		t.Fatalf("corrupt count = %d, want 4", got)
	}
	// Recompute-and-overwrite heals the object.
	if err := s.Put(key, testSchema, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key, testSchema)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("after repair: ok=%v err=%v", ok, err)
	}
}

// TestStoreBadHeader pins rejection of blobs with a corrupted magic, an
// unknown format version, a mismatched schema tag, or a flipped payload
// byte (checksum failure).
func TestStoreBadHeader(t *testing.T) {
	s := openTestStore(t)
	key := KeyOf("bad-header")
	payload := []byte("payload bytes")
	if err := s.Put(key, testSchema, payload); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	corruptions := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"magic", func(b []byte) { b[0] ^= 0xff }},
		{"version", func(b []byte) { b[len(storeMagic)] = formatVersion + 1 }},
		{"schema", func(b []byte) { b[len(storeMagic)+2] ^= 0xff }},
		{"payload-bit", func(b []byte) { b[len(b)-40] ^= 0x01 }},
	}
	for _, c := range corruptions {
		mutated := append([]byte(nil), pristine...)
		c.mutate(mutated)
		if err := os.WriteFile(s.Path(key), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(key, testSchema); ok || err != nil {
			t.Errorf("%s corruption: ok=%v err=%v (want miss)", c.name, ok, err)
		}
	}
	// A valid blob under the wrong schema tag is also a miss.
	if err := os.WriteFile(s.Path(key), pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key, "runstore/other@v9"); ok || err != nil {
		t.Errorf("wrong schema: ok=%v err=%v (want miss)", ok, err)
	}
}

// overflowFrame is a well-formed header whose payload length, 2^64-22,
// wraps to 10 once the 32 checksum bytes are added to it — exactly the 10
// bytes that follow. The schema is empty, so the frame is 30 bytes.
func overflowFrame() []byte {
	b := append([]byte(storeMagic), formatVersion, 0)
	b = binary.AppendUvarint(b, math.MaxUint64-21)
	return append(b, "0123456789"...)
}

// TestStoreLengthOverflowReadsAsMiss: the length check used to add before
// comparing, accepted that frame and panicked slicing the payload.
func TestStoreLengthOverflowReadsAsMiss(t *testing.T) {
	s := openTestStore(t)
	key := KeyOf("length-overflow")
	frame := overflowFrame()
	if len(frame) != 30 {
		t.Fatalf("frame is %d bytes, want 30", len(frame))
	}
	if err := os.MkdirAll(filepath.Dir(s.Path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(key), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key, ""); ok || err != nil {
		t.Fatalf("overflowing length: ok=%v err=%v (want miss)", ok, err)
	}
	if got := s.Stats().Corrupt; got != 1 {
		t.Fatalf("corrupt count = %d, want 1", got)
	}
}

// FuzzDecodeBlob feeds decodeBlob arbitrary file contents: it must never
// panic, and a frame it accepts is the one encodeBlob writes for that
// schema and payload — no second spelling of a valid blob exists. The
// overflow frame is in the checked-in corpus (testdata/fuzz).
func FuzzDecodeBlob(f *testing.F) {
	valid := encodeBlob(testSchema, []byte("payload bytes"))
	f.Add(valid, testSchema)
	f.Add(valid[:len(valid)-1], testSchema)
	f.Add(valid[:len(storeMagic)+3], testSchema)
	f.Add(encodeBlob("", nil), "")
	f.Fuzz(func(t *testing.T, data []byte, schema string) {
		payload, err := decodeBlob(data, schema)
		if err != nil {
			return
		}
		if again := encodeBlob(schema, payload); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}

// TestStoreConcurrentWriters races many writers on the same key: every
// Put must stay atomic (no torn object is ever observable) and the final
// object must be exactly one writer's payload.
func TestStoreConcurrentWriters(t *testing.T) {
	s := openTestStore(t)
	key := KeyOf("contended")
	const writers = 16
	payloads := make([][]byte, writers)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte(fmt.Sprintf("writer-%02d|", i)), 128)
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(key, testSchema, payloads[i]); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
			// Interleaved reads must only ever see complete objects.
			if got, ok, err := s.Get(key, testSchema); err != nil {
				t.Errorf("reader %d: %v", i, err)
			} else if ok && !oneOf(got, payloads) {
				t.Errorf("reader %d observed a torn object", i)
			}
		}(i)
	}
	wg.Wait()
	got, ok, err := s.Get(key, testSchema)
	if err != nil || !ok {
		t.Fatalf("final Get: ok=%v err=%v", ok, err)
	}
	if !oneOf(got, payloads) {
		t.Fatal("final object is not any writer's payload")
	}
	// No temp files may leak.
	entries, err := os.ReadDir(filepath.Dir(s.Path(key)))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("object dir has %d entries, want 1 (leaked temp files?)", len(entries))
	}
}

func oneOf(got []byte, candidates [][]byte) bool {
	for _, c := range candidates {
		if bytes.Equal(got, c) {
			return true
		}
	}
	return false
}

func TestKeyOfStableAndDistinct(t *testing.T) {
	a, b := KeyOf("config-a"), KeyOf("config-b")
	if a == b {
		t.Fatal("distinct canonicals share a key")
	}
	if a != KeyOf("config-a") {
		t.Fatal("KeyOf is not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(a))
	}
}
