package eval

import (
	"fmt"
	"slices"
	"time"

	"caribou/internal/core"
	"caribou/internal/platform"
	"caribou/internal/region"
)

// ResultSchema tags the blob payload format a cached Result is stored
// under in a runstore.Store. Bump the version suffix whenever the wire
// format in codec.go or the record types it carries change shape — or the
// draws behind a run change, so results of the two commits must not meet
// in one figure: old blobs then read as a schema mismatch (a miss) and are
// transparently recomputed. @v2: the solver's Monte Carlo stream became
// per solve instead of per hour. @v3: the payload is the interned binary
// format of codec.go instead of a gob stream (no result changed). @v4: the
// solver prices a replayed sample's carbon from its energy by region and
// gigabytes by region pair instead of event by event — every carbon
// estimate moved by summation order (≈1e-15 relative), which no printed
// figure shows, but blobs of the two definitions still must not meet.
const ResultSchema = "caribou/eval.Result@v4"

// CanonicalKey returns the canonical serialization of the defaulted
// configuration — the string whose SHA-256 (runstore.KeyOf) addresses
// this run's result blob. Two configurations with equal keys produce
// bit-identical Results; see canonicalKey for the coarse-run exclusions.
func (c RunConfig) CanonicalKey() string {
	return c.withDefaults().canonicalKey()
}

// resultBlob is the durable form of a Result: the facts a run produced
// that cannot be rebuilt from its configuration. Everything else in a
// Result (the Env's catalogue, pricing book, and carbon traces) is
// deterministic given (seed, window, regions) and is reconstructed on
// load — the carbon source comes from the process-wide SharedSource
// cache, so rebuilding an Env costs far less than re-running the solver.
type resultBlob struct {
	Workload     string
	Seed         int64
	Regions      []region.ID
	Home         region.ID
	WarmupDays   int
	EvalDays     int
	Start        int
	InvokeErrors int
	Records      []*platform.InvocationRecord
}

// EncodeResult serializes res (produced by running cfg) into a blob
// payload for storage under cfg.CanonicalKey(). Equal results encode to
// equal bytes.
func EncodeResult(cfg RunConfig, res *Result) ([]byte, error) {
	cfg = cfg.withDefaults()
	payload, err := encodeBlob(&resultBlob{
		Workload:     workloadName(cfg),
		Seed:         cfg.Seed,
		Regions:      cfg.Regions,
		Home:         evalHome,
		WarmupDays:   warmupDays,
		EvalDays:     cfg.EvalDays,
		Start:        res.Start,
		InvokeErrors: res.App.InvokeErrors,
		Records:      res.App.Records,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: encode cached result: %w", err)
	}
	return payload, nil
}

func workloadName(cfg RunConfig) string {
	if cfg.Workload == nil {
		return ""
	}
	return cfg.Workload.Name
}

// DecodeResult rebuilds a Result from a blob payload previously produced
// by EncodeResult for the same canonical configuration; a payload whose
// header names another workload, seed, region set or window is refused.
// The returned Result supports everything the figure drivers use —
// Summarize, SummarizeWindow, and App.Records — but carries no live
// executor wiring (it cannot be resumed), and its records are read-only
// views of shared slabs whose service-count maps are nil when empty.
func DecodeResult(cfg RunConfig, payload []byte) (*Result, error) {
	cfg = cfg.withDefaults()
	blob, err := decodeBlob(payload)
	if err != nil {
		return nil, fmt.Errorf("eval: decode cached result: %w", err)
	}
	if name := workloadName(cfg); blob.Workload != name {
		return nil, fmt.Errorf("eval: cached result is for workload %q, not %q", blob.Workload, name)
	}
	// The environment is rebuilt from cfg, so the blob must describe the
	// same one — which also keeps a corrupt window from sizing the traces.
	if blob.Seed != cfg.Seed || blob.Home != evalHome || !slices.Equal(blob.Regions, cfg.Regions) ||
		blob.WarmupDays != warmupDays || blob.EvalDays != cfg.EvalDays {
		return nil, fmt.Errorf("eval: cached result is for another configuration (seed %d, home %s, regions %v, %d+%d days)",
			blob.Seed, blob.Home, blob.Regions, blob.WarmupDays, blob.EvalDays)
	}
	total := time.Duration(warmupDays+cfg.EvalDays) * 24 * time.Hour
	env, err := core.NewEnv(core.EnvConfig{
		Seed:    cfg.Seed,
		Start:   EvalStart,
		End:     EvalStart.Add(total),
		Regions: cfg.Regions,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: rebuild env for cached result: %w", err)
	}
	app := &core.App{
		Env:          env,
		Workload:     cfg.Workload,
		Home:         evalHome,
		Records:      blob.Records,
		InvokeErrors: blob.InvokeErrors,
	}
	return &Result{Env: env, App: app, Start: blob.Start}, nil
}
