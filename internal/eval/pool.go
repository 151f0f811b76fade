package eval

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"caribou/internal/region"
	"caribou/internal/runstore"
	"caribou/internal/solver"
	"caribou/internal/telemetry"
)

// Pool is the evaluation harness's experiment runner: a bounded worker
// pool with run memoization. Every run already owns an isolated Env, so
// independent RunConfigs execute concurrently; results are returned in
// submission order regardless of worker count, and each run's determinism
// comes from its own seed, so figure output is bit-identical at any
// worker count.
//
// Submissions are memoized by a canonical serialization of the defaulted
// RunConfig: identical configurations — within one figure and across
// figures sharing a Pool — execute exactly once, and callers re-account
// the cached Result under whichever transmission model they need
// (Result.Summarize is read-only, so a memoized Result can be summarized
// any number of times).
//
// Jobs submitted through Run/RunAll/Do must not themselves submit to the
// same Pool: worker slots are held for a job's full duration, so nested
// submission can deadlock once all slots hold waiting parents.
type Pool struct {
	sem chan struct{}

	mu   sync.Mutex
	memo map[string]*memoEntry

	// store is the optional durable memo tier (AttachStore): misses in the
	// in-memory memo consult it before executing, and fresh executions
	// publish their results to it.
	store *runstore.Store

	submitted        int
	executed         int
	hits             int
	diskHits         int
	diskWrites       int
	diskDecodeErrors int

	tel poolTelemetry
}

// poolTelemetry holds instrument handles captured at NewPool; all fields
// are nil-safe no-ops when telemetry is off. The counters shadow the
// PoolStats fields (which drivers keep using programmatically) so pool
// activity shows up in trace exports alongside the other layers.
type poolTelemetry struct {
	rec              *telemetry.Recorder
	submitted        *telemetry.Counter
	executed         *telemetry.Counter
	memoHits         *telemetry.Counter
	diskHits         *telemetry.Counter
	diskWrites       *telemetry.Counter
	diskDecodeErrors *telemetry.Counter
	runSeconds       *telemetry.Histogram
}

func newPoolTelemetry() poolTelemetry {
	rec := telemetry.Default()
	return poolTelemetry{
		rec:              rec,
		submitted:        rec.Counter("pool.submitted"),
		executed:         rec.Counter("pool.executed"),
		memoHits:         rec.Counter("pool.memo_hits"),
		diskHits:         rec.Counter("pool.disk_hits"),
		diskWrites:       rec.Counter("pool.disk_writes"),
		diskDecodeErrors: rec.Counter("pool.disk_decode_errors"),
		runSeconds:       rec.Histogram("pool.run_seconds", []float64{0.5, 1, 2, 5, 10, 30, 60, 120}),
	}
}

// memoEntry singleflights one canonical configuration: concurrent
// duplicate submissions block on the first execution and share its
// Result.
type memoEntry struct {
	once sync.Once
	res  *Result
	err  error
}

// PoolStats counts pool activity. Hits is the number of submissions
// served from the in-memory memo (including waits on an in-flight
// duplicate); DiskHits counts memo misses served from the attached
// durable store without executing: Submitted == Executed + Hits +
// DiskHits once all submissions have returned, and a fully warm cache
// shows Executed == 0. DiskDecodeErrors counts blobs the store accepted
// (frame and checksum intact) whose payload DecodeResult then refused;
// each such run was executed and its blob overwritten.
type PoolStats struct {
	Submitted        int
	Executed         int
	Hits             int
	DiskHits         int
	DiskWrites       int
	DiskDecodeErrors int
}

// NewPool builds a runner executing at most workers runs concurrently;
// workers <= 0 defaults to GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		sem:  make(chan struct{}, workers),
		memo: make(map[string]*memoEntry),
		tel:  newPoolTelemetry(),
	}
}

// orDefault lets every driver accept a nil Pool (each then runs on its
// own default-width pool).
func (p *Pool) orDefault() *Pool {
	if p != nil {
		return p
	}
	return NewPool(0)
}

// AttachStore adds a durable memo tier: in-memory memo misses consult
// the store (runstore.KeyOf of the canonical configuration, ResultSchema
// payloads) before executing, and fresh executions publish their results
// to it. Attach before submitting runs; a nil store detaches. The store
// is best-effort — corrupt or unreadable blobs fall through to a normal
// execution, and a failed publish never fails the run.
func (p *Pool) AttachStore(s *runstore.Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store = s
}

// Stats snapshots the activity counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Submitted:        p.submitted,
		Executed:         p.executed,
		Hits:             p.hits,
		DiskHits:         p.diskHits,
		DiskWrites:       p.diskWrites,
		DiskDecodeErrors: p.diskDecodeErrors,
	}
}

// Run executes cfg through the pool and blocks until its Result is
// available, either freshly executed on a worker slot or served from the
// memo. Safe for concurrent use.
func (p *Pool) Run(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	key := cfg.canonicalKey()

	p.mu.Lock()
	e, ok := p.memo[key]
	if !ok {
		e = &memoEntry{}
		p.memo[key] = e
	}
	p.submitted++
	p.tel.submitted.Inc()
	if ok {
		p.hits++
		p.tel.memoHits.Inc()
	}
	p.mu.Unlock()

	e.once.Do(func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		p.mu.Lock()
		store := p.store
		p.mu.Unlock()
		// Durable tier: a valid blob under this key replaces the execution
		// outright. A corrupt blob was already classified as a miss by the
		// store; a blob that fails to decode (schema drift inside a valid
		// frame) is counted and falls through to a recompute whose Put
		// overwrites it.
		if store != nil {
			if payload, ok, _ := store.Get(runstore.KeyOf(key), ResultSchema); ok {
				res, derr := DecodeResult(cfg, payload)
				if derr == nil {
					p.mu.Lock()
					p.diskHits++
					p.mu.Unlock()
					p.tel.diskHits.Inc()
					e.res = res
					return
				}
				p.mu.Lock()
				p.diskDecodeErrors++
				p.mu.Unlock()
				p.tel.diskDecodeErrors.Inc()
			}
		}
		p.mu.Lock()
		p.executed++
		p.mu.Unlock()
		p.tel.executed.Inc()
		name := "<nil>"
		if cfg.Workload != nil {
			name = cfg.Workload.Name
		}
		sp := p.tel.rec.StartSpan("pool.run",
			telemetry.String("workload", name),
			telemetry.String("class", string(cfg.Class)),
			telemetry.String("strategy", cfg.Strategy.String()))
		var start time.Time
		if sp != nil {
			start = time.Now() //caribou:allow wallclock times the real experiment run for the run_seconds histogram, not simulated time
		}
		e.res, e.err = Run(cfg)
		if sp != nil {
			p.tel.runSeconds.Observe(time.Since(start).Seconds()) //caribou:allow wallclock times the real experiment run for the run_seconds histogram, not simulated time
		}
		sp.End()
		if store != nil && e.err == nil {
			if payload, perr := EncodeResult(cfg, e.res); perr == nil {
				if store.Put(runstore.KeyOf(key), ResultSchema, payload) == nil {
					p.mu.Lock()
					p.diskWrites++
					p.mu.Unlock()
					p.tel.diskWrites.Inc()
				}
			}
		}
	})
	return e.res, e.err
}

// RunAll executes all configurations concurrently (bounded by the worker
// count) and returns results aligned with cfgs. On failure it reports the
// first error in submission order — not completion order — so error
// behavior is independent of scheduling.
func (p *Pool) RunAll(cfgs []RunConfig) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.Run(cfgs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			c := cfgs[i].withDefaults()
			name := "<nil>"
			if c.Workload != nil {
				name = c.Workload.Name
			}
			return nil, fmt.Errorf("run %d (%s/%s %s): %w", i, name, c.Class, c.Strategy, err)
		}
	}
	return results, nil
}

// Do runs n independent jobs concurrently on the pool's worker slots and
// returns the first error in submission order. It is the escape hatch for
// drivers whose experiments are not RunConfig-shaped (bespoke Env loops);
// jobs index into caller-owned slices, which keeps assembly order
// deterministic. Do jobs bypass the memo.
func (p *Pool) Do(n int, job func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.sem <- struct{}{}
			defer func() { <-p.sem }()
			errs[i] = job(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// canonicalKey serializes a defaulted RunConfig into the memo key. Two
// configurations with equal keys produce bit-identical Results:
//
//   - The workload is identified by name (workload definitions are static
//     per name; bespoke workloads must use distinct names).
//   - Region order is preserved — it seeds per-region derivations.
//   - Coarse runs never consult the solver or estimator, so the planning
//     inputs that only exist for fine runs (PlanTx, Tolerances,
//     BenchFraction — forced to "none" for coarse) are excluded from
//     coarse keys. This is what lets one coarse execution serve every
//     transmission scenario and planning model that re-accounts it.
func (c RunConfig) canonicalKey() string {
	var b strings.Builder
	name := "<nil>"
	if c.Workload != nil {
		name = c.Workload.Name
	}
	fmt.Fprintf(&b, "wl=%s|class=%s|regions=%s|home=%s|strategy=%s|perday=%d|warmup=%d|eval=%d|seed=%d",
		name, c.Class, joinRegions(c.Regions), evalHome, c.Strategy, c.PerDay, warmupDays, c.EvalDays, c.Seed)
	if c.Strategy.Coarse == "" {
		tol := solver.Tolerances{Latency: solver.Tol(25)}
		if c.Tolerances != nil {
			tol = *c.Tolerances
		}
		// The third tol= slot once held a carbon tolerance; it stays "-" so
		// keys, and the blobs stored under them, do not move.
		fmt.Fprintf(&b, "|plantx=%v/%v|tol=%s,%s,-|bench=%v",
			c.PlanTx.InterRegionKWhPerGB, c.PlanTx.IntraRegionKWhPerGB,
			limitKey(tol.Latency), limitKey(tol.Cost),
			c.BenchFraction)
	}
	return b.String()
}

func limitKey(l solver.Limit) string {
	if !l.Set {
		return "-"
	}
	return fmt.Sprintf("%v", l.Pct)
}

func joinRegions(ids []region.ID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ",")
}
