package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// manualClock is the test clock: lease expiry decisions depend only on
// what the test sets, never on the wall clock.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func testManifest(name string, runs, shards int) *Manifest {
	man := &Manifest{Name: name, Schema: testSchema, Shards: shards}
	for i := 0; i < runs; i++ {
		man.Entries = append(man.Entries, ManifestEntry{
			Key:    KeyOf(fmt.Sprintf("run-%d", i)),
			Name:   fmt.Sprintf("run-%d", i),
			Config: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)),
		})
	}
	return man
}

func TestSweepManifestRoundTrip(t *testing.T) {
	s := openTestStore(t)
	clk := newManualClock()
	if _, err := CreateSweep(s, testManifest("rt", 7, 3), clk); err != nil {
		t.Fatal(err)
	}
	sw, err := OpenSweep(s, "rt", clk)
	if err != nil {
		t.Fatal(err)
	}
	man := sw.Manifest()
	if man.Name != "rt" || man.Shards != 3 || len(man.Entries) != 7 || man.Schema != testSchema {
		t.Fatalf("manifest = %+v", man)
	}
	// Round-robin partition covers every entry exactly once.
	seen := map[int]bool{}
	for sh := 0; sh < man.Shards; sh++ {
		for _, i := range man.ShardEntries(sh) {
			if seen[i] {
				t.Fatalf("entry %d in two shards", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 7 {
		t.Fatalf("partition covered %d of 7 entries", len(seen))
	}
	names, err := ListSweeps(s)
	if err != nil || len(names) != 1 || names[0] != "rt" {
		t.Fatalf("ListSweeps = %v, %v", names, err)
	}
}

func TestSweepClaimPartitionsShards(t *testing.T) {
	s := openTestStore(t)
	clk := newManualClock()
	sw, err := CreateSweep(s, testManifest("claims", 8, 4), clk)
	if err != nil {
		t.Fatal(err)
	}
	// Two workers alternately claim-run-done: each shard goes to exactly
	// one worker (the claim-next loop of a caribou-sweep run process).
	owners := map[int]string{}
	for {
		worker := fmt.Sprintf("w%d", len(owners)%2)
		shard, ok, err := sw.Claim(worker, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if prev, dup := owners[shard]; dup {
			t.Fatalf("shard %d claimed twice (by %s then %s)", shard, prev, worker)
		}
		owners[shard] = worker
		if err := sw.MarkDone(shard); err != nil {
			t.Fatal(err)
		}
	}
	if len(owners) != 4 {
		t.Fatalf("claimed %d shards, want 4", len(owners))
	}
	// Done shards are never reclaimed, even after every lease expires.
	clk.Advance(48 * time.Hour)
	if _, ok, err := sw.Claim("w0", time.Hour); ok || err != nil {
		t.Fatalf("claim after all done: ok=%v err=%v", ok, err)
	}
}

// TestSweepConcurrentClaimHasOneWinner races owners for one fresh shard:
// a lock must never be visible without its body, or a rival reads it as
// corrupt, steals it, and both believe they hold the shard.
func TestSweepConcurrentClaimHasOneWinner(t *testing.T) {
	s := openTestStore(t)
	clk := newManualClock()
	for round := 0; round < 100; round++ {
		sw, err := CreateSweep(s, testManifest(fmt.Sprintf("race-%d", round), 1, 1), clk)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var wins atomic.Int32
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(owner string) {
				defer wg.Done()
				_, ok, err := sw.Claim(owner, time.Hour)
				if err != nil {
					t.Error(err)
				}
				if ok {
					wins.Add(1)
				}
			}(fmt.Sprintf("w%d", w))
		}
		wg.Wait()
		if got := wins.Load(); got != 1 {
			t.Fatalf("round %d: %d owners claimed the one shard", round, got)
		}
	}
}

// TestSweepClaimIsReentrant pins that a live owner can re-claim its own
// shard (run loops re-enter Claim after finishing other shards).
func TestSweepClaimIsReentrant(t *testing.T) {
	s := openTestStore(t)
	clk := newManualClock()
	sw, err := CreateSweep(s, testManifest("reent", 2, 1), clk)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := sw.Claim("me", time.Hour); !ok {
		t.Fatal("first claim failed")
	}
	shard, ok, err := sw.Claim("me", time.Hour)
	if err != nil || !ok || shard != 0 {
		t.Fatalf("re-claim: shard=%d ok=%v err=%v", shard, ok, err)
	}
}

// TestSweepStaleLockSteal is the dead-process scenario: a shard's lease
// holder dies without marking done; after the lease expires another
// worker must steal the claim, and before expiry it must not.
func TestSweepStaleLockSteal(t *testing.T) {
	s := openTestStore(t)
	clk := newManualClock()
	sw, err := CreateSweep(s, testManifest("steal", 2, 1), clk)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := sw.Claim("dead-proc", 10*time.Minute); !ok {
		t.Fatal("initial claim failed")
	}
	// Live lease: a second worker must be refused.
	clk.Advance(9 * time.Minute)
	if _, ok, err := sw.Claim("alive-proc", 10*time.Minute); ok || err != nil {
		t.Fatalf("claim under a live lease: ok=%v err=%v", ok, err)
	}
	// Expired lease: the claim is stolen and recorded for the new owner.
	clk.Advance(2 * time.Minute)
	shard, ok, err := sw.Claim("alive-proc", 10*time.Minute)
	if err != nil || !ok || shard != 0 {
		t.Fatalf("steal: shard=%d ok=%v err=%v", shard, ok, err)
	}
	l, lok := sw.readLock(0)
	if !lok || l.Owner != "alive-proc" {
		t.Fatalf("lock after steal = %+v ok=%v", l, lok)
	}
	// The original owner's lease is gone: it may not renew.
	if err := sw.Renew(0, "dead-proc", 10*time.Minute); err == nil {
		t.Fatal("dead owner renewed a stolen lock")
	}
	if err := sw.Renew(0, "alive-proc", 10*time.Minute); err != nil {
		t.Fatalf("new owner renew: %v", err)
	}
}

// TestSweepCorruptLockIsStale pins that an unparsable lock file (torn by
// a crash before atomic locks existed, or hand-edited) is treated as
// stale and stolen rather than wedging the shard forever.
func TestSweepCorruptLockIsStale(t *testing.T) {
	s := openTestStore(t)
	clk := newManualClock()
	sw, err := CreateSweep(s, testManifest("corrupt-lock", 1, 1), clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sw.lockPath(0), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	shard, ok, err := sw.Claim("healer", time.Hour)
	if err != nil || !ok || shard != 0 {
		t.Fatalf("claim over corrupt lock: shard=%d ok=%v err=%v", shard, ok, err)
	}
}

func TestSweepStatus(t *testing.T) {
	s := openTestStore(t)
	clk := newManualClock()
	man := testManifest("status", 4, 2)
	sw, err := CreateSweep(s, man, clk)
	if err != nil {
		t.Fatal(err)
	}
	// Blobs for shard 0's entries (0 and 2); shard 0 claimed and done.
	for _, i := range []int{0, 2} {
		if err := s.Put(man.Entries[i].Key, testSchema, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := sw.Claim("w0", time.Minute); !ok {
		t.Fatal("claim failed")
	}
	if err := sw.MarkDone(0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	st := sw.Status()
	if len(st) != 2 {
		t.Fatalf("status has %d shards", len(st))
	}
	if st[0].Total != 2 || st[0].Present != 2 || !st[0].Done || st[0].Owner != "w0" || !st[0].Expired {
		t.Fatalf("shard 0 status = %+v", st[0])
	}
	if st[1].Total != 2 || st[1].Present != 0 || st[1].Done || st[1].Owner != "" {
		t.Fatalf("shard 1 status = %+v", st[1])
	}
}

// TestSweepShardsClampedToRuns pins that a submit asking for more shards
// than runs degrades to one shard per run instead of empty shards.
func TestSweepShardsClampedToRuns(t *testing.T) {
	s := openTestStore(t)
	sw, err := CreateSweep(s, testManifest("clamp", 3, 16), newManualClock())
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.Manifest().Shards; got != 3 {
		t.Fatalf("shards = %d, want 3", got)
	}
}

// FuzzShardLock writes arbitrary bytes as shard 0's lock file and lets two
// runners at it. Nothing may panic, and a malformed lock is nobody's: the
// oracle below reads a lock the way the protocol writes one — a JSON
// object with an owner, a positive lease and an acquisition time that is
// not further ahead than that lease — and
//
//   - Claim reports the shard held by someone else only for a well-formed,
//     unexpired lock of another owner (anything else is stale and stolen);
//   - Claim leaves the file alone — "already ours" — only for a
//     well-formed, unexpired lock of the claimer, and otherwise the file it
//     leaves is the claimer's own fresh lock;
//   - Renew succeeds only on a well-formed lock of the renewer, and never
//     for the empty owner.
func FuzzShardLock(f *testing.F) {
	clk := newManualClock()
	now := clk.Now().Unix()
	for _, seed := range []string{
		fmt.Sprintf(`{"owner":"me","acquired_unix":%d,"lease_sec":60}`, now-5),
		fmt.Sprintf(`{"owner":"other","acquired_unix":%d,"lease_sec":60}`, now-5),
		fmt.Sprintf(`{"owner":"other","acquired_unix":%d,"lease_sec":60}`, now-600),
		``, `{}`, `null`, `{"owner":"me"}`, `[1,2]`, `{"owner":"me","acquired_unix":1e400}`,
		fmt.Sprintf(`{"owner":"me","acquired_unix":%d,"lease_sec":-3}`, now),
		fmt.Sprintf(`{"owner":"other","acquired_unix":%d,"lease_sec":0}`, int64(math.MaxInt64)),
		fmt.Sprintf(`{"owner":"other","acquired_unix":%d,"lease_sec":%d}`, int64(math.MaxInt64), int64(math.MaxInt64)),
		fmt.Sprintf(`{"owner":"","acquired_unix":%d,"lease_sec":60}`, now),
		fmt.Sprintf(`{"owner":"me","acquired_unix":%d,"lease_sec":60} trailing`, now),
	} {
		f.Add([]byte(seed))
	}
	store, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	sw, err := CreateSweep(store, testManifest("fuzz", 2, 1), clk)
	if err != nil {
		f.Fatal(err)
	}
	const lease = time.Minute
	f.Fuzz(func(t *testing.T, data []byte) {
		var l shardLock
		wellFormed := json.Unmarshal(data, &l) == nil && l.Owner != "" && l.LeaseSec > 0 &&
			l.AcquiredUnix >= 0 && l.AcquiredUnix-now <= l.LeaseSec && l.AcquiredUnix <= math.MaxInt64-l.LeaseSec
		live := wellFormed && now < l.AcquiredUnix+l.LeaseSec
		plant := func() {
			t.Helper()
			if err := os.WriteFile(sw.lockPath(0), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		after := func() []byte {
			t.Helper()
			buf, err := os.ReadFile(sw.lockPath(0))
			if err != nil {
				t.Fatal(err)
			}
			return buf
		}
		fresh, _ := json.Marshal(shardLock{Owner: "me", AcquiredUnix: now, LeaseSec: int64(lease / time.Second)})

		plant()
		shard, ok, err := sw.Claim("me", lease)
		if err != nil || shard != 0 {
			t.Fatalf("Claim over %q: shard %d, err %v", data, shard, err)
		}
		switch left := after(); {
		case !ok:
			if !live || l.Owner == "me" {
				t.Fatalf("lock %q blocked the claim (well-formed %v, live %v)", data, wellFormed, live)
			}
			if !bytes.Equal(left, data) {
				t.Fatalf("a refused claim rewrote the lock: %q → %q", data, left)
			}
		case live && l.Owner != "me":
			t.Fatalf("claim stole the live lock %q", data)
		case bytes.Equal(left, fresh):
			// stolen (or re-stamped): the claimer's own lock is in place
		case !bytes.Equal(left, data) || !live || l.Owner != "me":
			t.Fatalf("claim succeeded over %q and left %q, neither the claimer's fresh lock nor a live lock of its own", data, left)
		}

		plant()
		err = sw.Renew(0, "me", lease)
		if (err == nil) != (wellFormed && l.Owner == "me") {
			t.Fatalf("Renew over %q: err %v, but well-formed %v owner %q", data, err, wellFormed, l.Owner)
		}
		if left := after(); err == nil && !bytes.Equal(left, fresh) || err != nil && !bytes.Equal(left, data) {
			t.Fatalf("Renew over %q (err %v) left %q", data, err, left)
		}
		plant()
		if err := sw.Renew(0, "", lease); err == nil {
			t.Fatalf("Renew for the empty owner succeeded over %q", data)
		}
	})
}
