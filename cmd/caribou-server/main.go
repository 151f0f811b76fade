// Command caribou-server runs the Caribou control plane: a long-running
// HTTP/JSON service hosting registered workflows, streaming trace deltas
// into their event-driven token buckets, and serving planning decisions.
//
// Usage:
//
//	caribou-server [-addr HOST:PORT] [-shards N] [-queue-depth N] [-seed N]
//	               [-sim] [-solve-iterations N]
//	               [-trace FILE] [-telemetry] [-pprof ADDR]
//	               [-cpuprofile FILE] [-memprofile FILE]
//
// A tenant's mutations run one at a time under its own lock, at most
// -shards of them (the run slots) at once across tenants. Each tenant
// admits at most 1 + -queue-depth jobs, running or waiting, and the
// server -shards × (1 + -queue-depth); the next is answered with 429 +
// Retry-After.
//
// API (see DESIGN.md "Control plane"):
//
//	POST /v1/workflows              register a workflow (DAG + priority + regions)
//	POST /v1/workflows/{id}/trace   push a streaming trace delta
//	GET  /v1/workflows/{id}/plan    current plan + staleness metadata
//	POST /v1/workflows/{id}/solve   force a re-solve (409 when tokens are short)
//	GET  /v1/stats                  serving counters, run slots and jobs waiting
//	GET  /healthz                   liveness
//
// -sim serves against a clock frozen at the virtual-time origin, which
// makes every response body byte-reproducible for a given request script;
// the default wall clock only ever stamps served_at metadata — plan
// content is identical either way. Observability flags follow the
// caribou-eval conventions: -trace FILE dumps the NDJSON flight recorder
// on shutdown, -telemetry prints a summary table to stderr, -pprof serves
// net/http/pprof, -cpuprofile/-memprofile write runtime profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"caribou/internal/controlplane"
	"caribou/internal/diag"
)

func main() { os.Exit(realMain()) }

// realMain carries main's body so deferred cleanup (profile flushes,
// trace writes, server shutdown) runs before the process exits.
func realMain() int {
	addr := flag.String("addr", "localhost:8455", "HTTP listen address")
	shards := flag.Int("shards", 4, "run slots: tenant jobs that run at once (a tenant's jobs run one at a time under its lock)")
	queueDepth := flag.Int("queue-depth", 64, "a tenant admits 1 + this many jobs, running or waiting, and the server -shards times as many; the next gets 429")
	seed := flag.Int64("seed", 1, "server seed: derives tenant seeds and the carbon source")
	sim := flag.Bool("sim", false, "serve against a clock frozen at the virtual-time origin (byte-reproducible responses)")
	solveIters := flag.Int("solve-iterations", 24, "HBSS iteration cap per tenant solve")
	diagFlags := diag.Register(flag.CommandLine)
	flag.Parse()

	// Telemetry must be enabled before the server is constructed:
	// instrument handles are captured at construction time.
	stopDiag, err := diagFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-server: %v\n", err)
		return 1
	}
	defer stopDiag()

	cfg := controlplane.Config{
		Shards:        *shards,
		QueueDepth:    *queueDepth,
		Seed:          *seed,
		MaxIterations: *solveIters,
	}
	if !*sim {
		// The serving edge's one wall-clock site: the injected clock
		// stamps served_at metadata only; plan content never reads it
		// (see DESIGN.md "Control plane").
		//caribou:allow wallclock serving-edge clock stamps served_at metadata only; plan content never reads it
		cfg.Clock = time.Now
	}
	srv, err := controlplane.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-server: %v\n", err)
		return 1
	}
	defer srv.Close()

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Bounded request handling: a solve-heavy mutation can hold a
		// connection for a while, but not forever.
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	//caribou:allow goroutines HTTP listener runs beside the signal handler; tenant jobs run on its request goroutines
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "caribou-server: listening on %s (shards=%d run slots, queue-depth=%d per tenant, sim=%t)\n", *addr, *shards, *queueDepth, *sim)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	code := 0
	select {
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "caribou-server: %v\n", err)
			code = 1
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "caribou-server: %v; shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "caribou-server: shutdown: %v\n", err)
			code = 1
		}
		cancel()
	}

	// All diagnostics go to stderr or side files, mirroring caribou-eval.
	if err := diagFlags.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "caribou-server: %v\n", err)
		code = 1
	}
	return code
}
