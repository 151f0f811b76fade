package eval

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"caribou/internal/core"
	"caribou/internal/platform"
	"caribou/internal/region"
)

// ResultSchema tags the blob payload format a cached Result is stored
// under in a runstore.Store. Bump the version suffix whenever resultBlob
// or the record types it embeds change shape — or the draws behind a run
// change, so results of the two commits must not meet in one figure: old
// blobs then read as a schema mismatch (a miss) and are transparently
// recomputed. @v2: the solver's Monte Carlo stream became per solve
// instead of per hour.
const ResultSchema = "caribou/eval.Result@v2"

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
// payload for storage under cfg.CanonicalKey().
func EncodeResult(cfg RunConfig, res *Result) ([]byte, error) {
	cfg = cfg.withDefaults()
	name := ""
	if cfg.Workload != nil {
		name = cfg.Workload.Name
	}
	blob := resultBlob{
		Workload:     name,
		Seed:         cfg.Seed,
		Regions:      cfg.Regions,
		Home:         cfg.Home,
		WarmupDays:   cfg.WarmupDays,
		EvalDays:     cfg.EvalDays,
		Start:        res.Start,
		InvokeErrors: res.App.InvokeErrors,
		Records:      res.App.Records,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return nil, fmt.Errorf("eval: encode cached result: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeResult rebuilds a Result from a blob payload previously produced
// by EncodeResult for the same canonical configuration. The returned
// Result supports everything the figure drivers use — Summarize,
// SummarizeWindow, and App.Records — but carries no live executor wiring
// (it cannot be resumed).
func DecodeResult(cfg RunConfig, payload []byte) (*Result, error) {
	cfg = cfg.withDefaults()
	var blob resultBlob
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&blob); err != nil {
		return nil, fmt.Errorf("eval: decode cached result: %w", err)
	}
	name := ""
	if cfg.Workload != nil {
		name = cfg.Workload.Name
	}
	if blob.Workload != name {
		return nil, fmt.Errorf("eval: cached result is for workload %q, not %q", blob.Workload, name)
	}
	total := time.Duration(blob.WarmupDays+blob.EvalDays) * 24 * time.Hour
	env, err := core.NewEnv(core.EnvConfig{
		Seed:    blob.Seed,
		Start:   EvalStart,
		End:     EvalStart.Add(total),
		Regions: blob.Regions,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: rebuild env for cached result: %w", err)
	}
	app := &core.App{
		Env:          env,
		Workload:     cfg.Workload,
		Home:         blob.Home,
		Records:      blob.Records,
		InvokeErrors: blob.InvokeErrors,
	}
	return &Result{Env: env, App: app, Start: blob.Start}, nil
}
