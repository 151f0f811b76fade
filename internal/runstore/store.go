// Package runstore is a stdlib-only, content-addressed on-disk result
// store. It is the durable tier behind eval.Pool's in-memory run memo:
// a run's canonical configuration string hashes to a SHA-256 key, the
// key addresses one immutable blob, and blobs are written atomically
// (temp file + rename) so concurrent writers and killed processes can
// never publish a torn object. Every read re-verifies the blob's header
// and payload checksum; a truncated or corrupted blob is reported as a
// miss (and counted), so callers recompute and overwrite instead of
// consuming garbage.
//
// The repo's determinism invariants (caribou-lint, seeded streams) make
// every run reproducible bit-for-bit, so any two writers of the same key
// write identical results and last-rename-wins is safe. As of
// eval.ResultSchema @v3 that holds for the bytes too: the payload codec
// is byte-deterministic (maps are written in sorted key order), so two
// stores filled from the same configurations hold identical objects
// whoever computed them.
package runstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"caribou/internal/telemetry"
)

// Blob format: header then payload then trailer.
//
//	magic    8 bytes  "CRBSTOR1"
//	version  1 byte   formatVersion
//	schema   uvarint length + bytes (caller-declared payload schema tag)
//	length   uvarint  payload byte count
//	payload  length bytes
//	checksum 32 bytes sha256(payload)
//
// Any mismatch — magic, version, schema, short read, trailing garbage,
// checksum — classifies the blob as corrupt: Get reports a miss and the
// store counts it, so the caller recomputes and Put overwrites the bad
// object.
const (
	storeMagic    = "CRBSTOR1"
	formatVersion = 1
)

// KeyOf content-addresses a canonical configuration string.
func KeyOf(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// StoreStats counts store activity since Open.
type StoreStats struct {
	Hits    int64 // Get found a valid blob
	Misses  int64 // Get found no blob
	Corrupt int64 // Get found a blob but rejected it (bad header/checksum)
}

// Store is a content-addressed blob store rooted at one directory.
// All methods are safe for concurrent use by multiple goroutines and
// multiple processes sharing the directory.
type Store struct {
	dir string

	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64

	telHits    *telemetry.Counter
	telMisses  *telemetry.Counter
	telCorrupt *telemetry.Counter
	telWrites  *telemetry.Counter
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	rec := telemetry.Default()
	return &Store{
		dir:        dir,
		telHits:    rec.Counter("runstore.hits"),
		telMisses:  rec.Counter("runstore.misses"),
		telCorrupt: rec.Counter("runstore.corrupt"),
		telWrites:  rec.Counter("runstore.writes"),
	}, nil
}

// Stats snapshots the activity counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// Path returns the on-disk location addressed by key (which need not
// exist). Keys shorter than the fan-out prefix land in a literal dir.
func (s *Store) Path(key string) string {
	if len(key) < 3 {
		return filepath.Join(s.dir, "objects", "short", key)
	}
	return filepath.Join(s.dir, "objects", key[:2], key[2:])
}

// Get returns the payload stored under key, validating the header and
// checksum. ok is false when the blob is absent or fails validation
// (corrupt blobs are counted separately in Stats); err reports only
// environmental failures such as permission errors.
func (s *Store) Get(key, schema string) (payload []byte, ok bool, err error) {
	data, rerr := os.ReadFile(s.Path(key))
	if rerr != nil {
		if os.IsNotExist(rerr) {
			s.misses.Add(1)
			s.telMisses.Inc()
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("runstore: read %s: %w", key, rerr)
	}
	payload, verr := decodeBlob(data, schema)
	if verr != nil {
		s.corrupt.Add(1)
		s.telCorrupt.Inc()
		return nil, false, nil
	}
	s.hits.Add(1)
	s.telHits.Inc()
	return payload, true, nil
}

// Put publishes payload under key via an atomic write: the blob is
// assembled in a temp file in the same directory and renamed into place,
// so readers and concurrent writers only ever observe complete objects.
// Re-putting an existing key overwrites it (all writers of one key
// produce identical results under the determinism invariants).
func (s *Store) Put(key, schema string, payload []byte) error {
	dst := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	blob := encodeBlob(schema, payload)
	if err := atomicWrite(dst, blob); err != nil {
		return fmt.Errorf("runstore: put %s: %w", key, err)
	}
	s.telWrites.Inc()
	return nil
}

// atomicWrite publishes data at dst via temp file + rename in dst's
// directory (rename is atomic only within one filesystem).
func atomicWrite(dst string, data []byte) error {
	tmp, err := writeTemp(filepath.Dir(dst), data)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeTemp writes data to a new temp file in dir and returns its name.
func writeTemp(dir string, data []byte) (string, error) {
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// encodeBlob frames payload with the store header and trailing checksum.
func encodeBlob(schema string, payload []byte) []byte {
	var hdr []byte
	hdr = append(hdr, storeMagic...)
	hdr = append(hdr, formatVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(schema)))
	hdr = append(hdr, schema...)
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	out := append(hdr, payload...)
	sum := sha256.Sum256(payload)
	return append(out, sum[:]...)
}

// decodeBlob validates framing and returns the payload.
func decodeBlob(data []byte, schema string) ([]byte, error) {
	rest := data
	if len(rest) < len(storeMagic)+1 {
		return nil, fmt.Errorf("truncated header")
	}
	if string(rest[:len(storeMagic)]) != storeMagic {
		return nil, fmt.Errorf("bad magic")
	}
	rest = rest[len(storeMagic):]
	if rest[0] != formatVersion {
		return nil, fmt.Errorf("unsupported version %d", rest[0])
	}
	rest = rest[1:]
	slen, n := uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < slen {
		return nil, fmt.Errorf("truncated schema")
	}
	rest = rest[n:]
	if string(rest[:slen]) != schema {
		return nil, fmt.Errorf("schema mismatch")
	}
	rest = rest[slen:]
	plen, n := uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("truncated length")
	}
	rest = rest[n:]
	// Compare before adding: plen is attacker-sized, and plen+sha256.Size
	// wraps for lengths near 2^64.
	if uint64(len(rest)) < sha256.Size || plen != uint64(len(rest))-sha256.Size {
		return nil, fmt.Errorf("payload length mismatch")
	}
	payload := rest[:plen]
	var want [sha256.Size]byte
	copy(want[:], rest[plen:])
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

// uvarint reads a shortest-form uvarint. encodeBlob never pads one, and a
// padded length would give one payload more than one valid frame.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}
