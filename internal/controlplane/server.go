// Package controlplane implements Caribou-as-a-service: a long-running
// control plane hosting thousands of registered workflows, each with its
// own metric window, solver, and event-driven token bucket
// (manager.Stream). A tenant's mutations serialize on the tenant's own
// lock and run on the request's goroutine, at most Config.Shards at once;
// a per-tenant and a server-wide admission bound shed overload (429 +
// Retry-After). Plan reads take no lock:
// GET /plan loads an atomic.Pointer snapshot, so query latency is
// independent of solve backlog.
//
// The §6 manager semantics run event-driven here: tokens accrue per
// pushed trace delta, budget checks fire when a tenant's virtual time
// passes its scheduled due time, granularity downgrades under tight
// budgets, and a due check with an empty budget expires the active plan.
// See tenant.go for the determinism boundary between the simulation core
// and the serving edge.
package controlplane

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/region"
	"caribou/internal/telemetry"
)

// DefaultStart anchors every tenant's virtual time and the shared carbon
// source; it matches the evaluation window used across the repo.
var DefaultStart = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

// horizon bounds how far past DefaultStart tenants may advance; the
// shared carbon source covers [DefaultStart−8d, DefaultStart+horizon+2d].
const horizon = 14 * 24 * time.Hour

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of run slots: jobs that run at once (default
	// 4). Plan bodies are identical for every value; only scheduling
	// changes.
	Shards int
	// QueueDepth bounds each tenant at 1 + QueueDepth jobs, running or
	// waiting, and the server at Shards × (1 + QueueDepth) (default 64);
	// the next is rejected with 429.
	QueueDepth int
	// Seed derives every tenant seed and the shared carbon source
	// (default 1).
	Seed int64
	// Clock stamps the served_at field of responses and nothing else —
	// the determinism seam between the simulation core and the serving
	// edge. Everything that decides plan content (token accrual, solve
	// triggering, expiry) advances on tenant-pushed trace timestamps,
	// never on this clock, and latency instruments time themselves with
	// telemetry stopwatches. nil freezes served_at at DefaultStart, which
	// makes every response body byte-reproducible; cmd/caribou-server
	// passes time.Now behind an annotated //caribou:allow wallclock site.
	Clock func() time.Time
	// MaxIterations caps each tenant solver's HBSS iterations (default
	// 24): thousands of tenants trade per-solve search depth for
	// throughput.
	MaxIterations int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = func() time.Time { return DefaultStart }
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 24
	}
	return c
}

// Server hosts the control-plane API. Create with New, serve via
// ServeHTTP (it implements http.Handler), stop with Close.
type Server struct {
	cfg Config
	cat *region.Catalogue // the universe of candidate regions
	src carbon.Source
	mux *http.ServeMux

	slots   chan struct{} // run slots: at most Config.Shards jobs run at once
	quit    chan struct{} // closed by Close: fails waiting jobs
	closeMu sync.RWMutex
	closed  bool
	jobs    sync.WaitGroup // admitted jobs, waited for by Close

	admitted chan struct{} // one token per admitted job, running or waiting
	waiting  atomic.Int64  // admitted jobs not yet running

	mu       sync.RWMutex
	tenants  map[string]*Tenant
	reserved map[string]bool
	nextID   atomic.Uint64

	// Serving counters, exported via /v1/stats.
	registered atomic.Int64
	deltas     atomic.Int64
	queries    atomic.Int64
	solves     atomic.Int64
	skips      atomic.Int64
	rejections atomic.Int64

	tel serverTelemetry
}

// serverTelemetry holds instrument handles captured at construction;
// nil-safe no-ops when telemetry is off.
type serverTelemetry struct {
	rec          *telemetry.Recorder
	registers    *telemetry.Counter
	deltas       *telemetry.Counter
	queries      *telemetry.Counter
	rejections   *telemetry.Counter
	queryLatency *telemetry.Histogram
	solveLatency *telemetry.Histogram
	queueWait    *telemetry.Histogram
	queueDepth   *telemetry.Gauge // most jobs admitted but not yet running
	jobs         *telemetry.Counter
}

func newServerTelemetry() serverTelemetry {
	rec := telemetry.Default()
	latencyBounds := []float64{1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5}
	return serverTelemetry{
		rec:          rec,
		registers:    rec.Counter("controlplane.registers"),
		deltas:       rec.Counter("controlplane.deltas"),
		queries:      rec.Counter("controlplane.plan_queries"),
		rejections:   rec.Counter("controlplane.rejections"),
		queryLatency: rec.Histogram("controlplane.query_latency_sec", latencyBounds),
		solveLatency: rec.Histogram("controlplane.solve_latency_sec", latencyBounds),
		queueDepth:   rec.Gauge("controlplane.queue_depth"),
		jobs:         rec.Counter("controlplane.jobs"),
		// From admission until the job holds its tenant's lock and a run slot.
		queueWait: rec.Histogram("controlplane.queue_wait_sec", latencyBounds),
	}
}

// New builds a server: the shared carbon source, the run slots and
// admission bound, and the HTTP mux.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	src, err := carbon.SharedSource(cfg.Seed, DefaultStart.Add(-8*24*time.Hour), DefaultStart.Add(horizon+2*24*time.Hour))
	if err != nil {
		return nil, fmt.Errorf("controlplane: carbon source: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		cat:      region.NorthAmerica(),
		src:      src,
		tenants:  make(map[string]*Tenant),
		reserved: make(map[string]bool),
		admitted: make(chan struct{}, cfg.Shards*(1+cfg.QueueDepth)),
		slots:    make(chan struct{}, cfg.Shards),
		quit:     make(chan struct{}),
		tel:      newServerTelemetry(),
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close rejects later submits, fails waiting jobs with errClosed, and
// returns once every running job has finished.
func (s *Server) Close() {
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
	}
	s.closeMu.Unlock()
	s.jobs.Wait()
}

// tenant looks a tenant up without taking its lock.
func (s *Server) tenant(id string) (*Tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[id]
	return t, ok
}

// Tenants reports how many workflows are registered.
func (s *Server) Tenants() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tenants)
}
