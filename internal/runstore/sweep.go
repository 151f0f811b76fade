package runstore

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A sweep is a named manifest of content-addressed runs partitioned into
// shards. Submitting writes the manifest once; any number of `run`
// processes then claim shards via exclusive-create lock files and fill
// the shared object store. Because results are content-addressed and every run is
// bit-reproducible, shards merge trivially: the merged result set is
// simply the union of blobs, byte-identical regardless of which process
// executed which shard (or whether a shard was executed twice after a
// lease steal).

// ManifestEntry is one run of a sweep. Config is an opaque payload the
// executing runner understands (eval.RunConfig JSON for caribou-sweep);
// runstore itself never interprets it.
type ManifestEntry struct {
	// Key is the content address (KeyOf of the run's canonical
	// configuration string) the result blob is stored under.
	Key string `json:"key"`
	// Name is a human-readable label for status/export output.
	Name   string          `json:"name"`
	Config json.RawMessage `json:"config"`
}

// Manifest describes a submitted sweep.
type Manifest struct {
	Name string `json:"name"`
	// Schema tags the blob payload format the entries resolve to.
	Schema string `json:"schema"`
	// Shards is the number of partitions entries are dealt into
	// (round-robin: entry i belongs to shard i % Shards).
	Shards  int             `json:"shards"`
	Entries []ManifestEntry `json:"entries"`
}

// ShardEntries returns the indices of the entries belonging to shard.
func (m *Manifest) ShardEntries(shard int) []int {
	var idx []int
	for i := range m.Entries {
		if i%m.Shards == shard {
			idx = append(idx, i)
		}
	}
	return idx
}

// Sweep binds a manifest to a store and a clock for lease decisions.
type Sweep struct {
	store *Store
	name  string
	clock Clock
	man   *Manifest
}

// sweepDir is where a named sweep keeps its manifest, locks, and done
// markers inside the store.
func sweepDir(store *Store, name string) string {
	return filepath.Join(store.Dir(), "sweeps", name)
}

// CreateSweep validates the manifest, writes it atomically under the
// store, and returns the opened sweep. An existing sweep of the same
// name is overwritten (its locks and done markers are cleared) — a
// submit defines the sweep from scratch.
func CreateSweep(store *Store, man *Manifest, clock Clock) (*Sweep, error) {
	if man.Name == "" {
		return nil, fmt.Errorf("runstore: sweep needs a name")
	}
	if man.Shards <= 0 {
		man.Shards = 1
	}
	if man.Shards > len(man.Entries) && len(man.Entries) > 0 {
		man.Shards = len(man.Entries)
	}
	dir := sweepDir(store, man.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "shards"), 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	buf, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return nil, err
	}
	if err := atomicWrite(filepath.Join(dir, "manifest.json"), append(buf, '\n')); err != nil {
		return nil, fmt.Errorf("runstore: write manifest: %w", err)
	}
	return &Sweep{store: store, name: man.Name, clock: clock, man: man}, nil
}

// OpenSweep loads an existing sweep's manifest.
func OpenSweep(store *Store, name string, clock Clock) (*Sweep, error) {
	buf, err := os.ReadFile(filepath.Join(sweepDir(store, name), "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("runstore: open sweep %q: %w", name, err)
	}
	var man Manifest
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("runstore: sweep %q manifest: %w", name, err)
	}
	if man.Shards <= 0 {
		return nil, fmt.Errorf("runstore: sweep %q manifest has no shards", name)
	}
	return &Sweep{store: store, name: name, clock: clock, man: &man}, nil
}

// Manifest returns the sweep's manifest.
func (s *Sweep) Manifest() *Manifest { return s.man }

// shardLock is the JSON body of a shard's lock file.
type shardLock struct {
	Owner        string `json:"owner"`
	AcquiredUnix int64  `json:"acquired_unix"`
	LeaseSec     int64  `json:"lease_sec"`
}

func (l shardLock) expired(now time.Time) bool {
	return now.Unix() >= l.AcquiredUnix+l.LeaseSec
}

// wellFormed reports whether l is a lock this protocol could have written
// and now could still honour: an owner, a positive lease whose end is a
// representable time, and an acquisition instant no further ahead of now
// than that lease (a holder's clock may run a little fast; a lock dated
// beyond its own lease would never expire). Anything else — a torn or
// foreign file that happens to parse — is nobody's lock.
func (l shardLock) wellFormed(now time.Time) bool {
	return l.Owner != "" && l.LeaseSec > 0 && l.AcquiredUnix >= 0 &&
		l.AcquiredUnix <= math.MaxInt64-l.LeaseSec && l.AcquiredUnix-now.Unix() <= l.LeaseSec
}

func (s *Sweep) lockPath(shard int) string {
	return filepath.Join(sweepDir(s.store, s.name), "shards", fmt.Sprintf("%d.lock", shard))
}

func (s *Sweep) donePath(shard int) string {
	return filepath.Join(sweepDir(s.store, s.name), "shards", fmt.Sprintf("%d.done", shard))
}

// Claim acquires the next available shard for owner: the lowest-numbered
// shard that is not done and either unclaimed, already leased to owner,
// or whose lease has expired (a stale lock from a dead process is stolen
// by atomically renaming a fresh lock over it and re-reading to confirm
// the steal won). Returns ok=false when every shard is done or validly
// leased to someone else.
func (s *Sweep) Claim(owner string, lease time.Duration) (shard int, ok bool, err error) {
	if owner == "" {
		return 0, false, fmt.Errorf("runstore: claim needs a non-empty owner")
	}
	leaseSec := int64(lease / time.Second)
	if leaseSec <= 0 {
		leaseSec = 1
	}
	for i := 0; i < s.man.Shards; i++ {
		if _, err := os.Stat(s.donePath(i)); err == nil {
			continue
		}
		got, err := s.tryClaim(i, owner, leaseSec)
		if err != nil {
			return 0, false, err
		}
		if got {
			return i, true, nil
		}
	}
	return 0, false, nil
}

func (s *Sweep) tryClaim(shard int, owner string, leaseSec int64) (bool, error) {
	body, err := json.Marshal(shardLock{
		Owner:        owner,
		AcquiredUnix: s.clock.Now().Unix(),
		LeaseSec:     leaseSec,
	})
	if err != nil {
		return false, err
	}
	path := s.lockPath(shard)
	// A fresh lock appears with its body already in it (link of a written
	// temp file; like O_EXCL, link fails if the name exists). Creating the
	// file and then writing it would show a concurrent claimer an empty
	// lock, which reads as corrupt and is stolen — two owners of one shard.
	err = linkNew(path, body)
	if err == nil {
		return true, nil
	}
	if !os.IsExist(err) {
		return false, fmt.Errorf("runstore: lock shard %d: %w", shard, err)
	}
	cur, ok := s.readLock(shard)
	if ok && cur.Owner == owner && !cur.expired(s.clock.Now()) {
		return true, nil // already ours and still live
	}
	if ok && !cur.expired(s.clock.Now()) {
		return false, nil // validly held by someone else
	}
	// Stale (or unreadable) lock: steal by renaming a fresh lock over it,
	// then re-read to confirm this process's rename was the last one —
	// concurrent stealers race on the rename and exactly one body wins.
	if err := atomicWrite(path, body); err != nil {
		return false, fmt.Errorf("runstore: steal shard %d: %w", shard, err)
	}
	after, ok := s.readLock(shard)
	return ok && after.Owner == owner, nil
}

// linkNew creates path holding data, atomically, failing with an
// os.IsExist error if path already exists.
func linkNew(path string, data []byte) error {
	tmp, err := writeTemp(filepath.Dir(path), data)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	return os.Link(tmp, path)
}

// readLock parses a shard's lock file; ok is false when the lock is
// absent, unreadable or not well-formed (such a lock is treated as stale).
func (s *Sweep) readLock(shard int) (shardLock, bool) {
	buf, err := os.ReadFile(s.lockPath(shard))
	if err != nil {
		return shardLock{}, false
	}
	var l shardLock
	if err := json.Unmarshal(buf, &l); err != nil || !l.wellFormed(s.clock.Now()) {
		return shardLock{}, false
	}
	return l, true
}

// Renew extends owner's lease on shard (e.g. between runs of a long
// shard). It fails if the shard is no longer leased to owner.
func (s *Sweep) Renew(shard int, owner string, lease time.Duration) error {
	cur, ok := s.readLock(shard)
	if !ok || cur.Owner != owner {
		return fmt.Errorf("runstore: shard %d is not leased to %s", shard, owner)
	}
	leaseSec := int64(lease / time.Second)
	if leaseSec <= 0 {
		leaseSec = 1
	}
	body, err := json.Marshal(shardLock{Owner: owner, AcquiredUnix: s.clock.Now().Unix(), LeaseSec: leaseSec})
	if err != nil {
		return err
	}
	return atomicWrite(s.lockPath(shard), body)
}

// MarkDone publishes shard's done marker. Done shards are never claimed
// again; their results are the blobs in the shared object store.
func (s *Sweep) MarkDone(shard int) error {
	return atomicWrite(s.donePath(shard), []byte("done\n"))
}

// ShardStatus reports one shard's progress.
type ShardStatus struct {
	Shard int
	// Total and Present count the shard's runs and how many already have
	// a result blob on disk.
	Total, Present int
	// Owner is the current lease holder ("" when unclaimed); Expired
	// reports whether that lease has lapsed.
	Owner   string
	Expired bool
	Done    bool
}

// Status reports per-shard progress in shard order.
func (s *Sweep) Status() []ShardStatus {
	out := make([]ShardStatus, s.man.Shards)
	now := s.clock.Now()
	for i := range out {
		st := ShardStatus{Shard: i}
		for _, ei := range s.man.ShardEntries(i) {
			st.Total++
			if s.store.Has(s.man.Entries[ei].Key) {
				st.Present++
			}
		}
		if l, ok := s.readLock(i); ok {
			st.Owner = l.Owner
			st.Expired = l.expired(now)
		}
		if _, err := os.Stat(s.donePath(i)); err == nil {
			st.Done = true
		}
		out[i] = st
	}
	return out
}

// ListSweeps returns the names of the sweeps in the store, sorted.
func ListSweeps(store *Store) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(store.Dir(), "sweeps"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
