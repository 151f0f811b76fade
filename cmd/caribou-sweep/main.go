// Command caribou-sweep is the durable sweep engine's job-queue CLI: it
// expands a sweep specification into a manifest of content-addressed run
// keys, lets any number of processes claim shards of that manifest via
// exclusive-create lock files, and exports deterministic per-run summaries
// from the shared on-disk store.
//
// Usage:
//
//	caribou-sweep submit -name NAME [-cache-dir DIR] [-figures fig7,...] [-quick] [-seed N] [-shards N] [-spec FILE]
//	caribou-sweep run    -name NAME [-cache-dir DIR] [-owner ID] [-workers N] [-lease DUR] [-bench LABEL]
//	caribou-sweep resume -name NAME ...   (alias of run)
//	caribou-sweep status [-name NAME] [-cache-dir DIR]
//	caribou-sweep export -name NAME [-cache-dir DIR]
//
// A sweep is defined once by submit; run processes started on any number
// of machines sharing the cache directory each claim the next unleased
// shard, execute its runs through the eval pool (publishing every result
// to the store), and mark it done. Because results are content-addressed
// and bit-reproducible, the merged result set is byte-identical no
// matter how many processes participated — export output never depends
// on the sharding. Runs the store already holds are served from disk, so
// re-running a warm sweep executes zero solver work.
//
// Diagnostics go to stderr; stdout carries only deterministic output
// (export summaries, and the benchmark line printed by -bench).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"caribou/internal/eval"
	"caribou/internal/runstore"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	verb := os.Args[1]

	fs := flag.NewFlagSet("caribou-sweep "+verb, flag.ExitOnError)
	cacheDir := fs.String("cache-dir", ".caribou-cache", "content-addressed store directory shared by all processes")
	name := fs.String("name", "", "sweep name")
	figures := fs.String("figures", "", "comma-separated figure presets (fig7,fig8,fig9,fig10)")
	quick := fs.Bool("quick", false, "mirror caribou-eval -quick: reduced workload set and parameter lists")
	seed := fs.Int64("seed", 17, "experiment seed for preset and grid runs")
	shards := fs.Int("shards", 1, "number of shards the manifest is dealt into")
	specFile := fs.String("spec", "", "JSON SweepSpec file (combined with -figures/-quick/-seed)")
	owner := fs.String("owner", "", "lease owner identity (default: pid-<pid>)")
	workers := fs.Int("workers", 0, "concurrent runs per claimed shard (0 = GOMAXPROCS)")
	lease := fs.Duration("lease", 15*time.Minute, "shard lease duration; expired leases are stolen by other runners")
	bench := fs.String("bench", "", "print a 'Benchmark<LABEL> 1 <ns> ns/op' line for the run verb's wall time")
	fs.Usage = usage
	fs.Parse(os.Args[2:])

	// The wall clock enters the sweep machinery only here, feeding the
	// shard-lease protocol through the runstore.Clock seam; blob content
	// and export output are clock-free.
	clk := runstore.ClockFunc(time.Now) //caribou:allow wallclock lease expiry needs real time across processes; injected via the runstore clock seam, never in blob or export content

	store, err := runstore.Open(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-sweep: %v\n", err)
		return 1
	}

	switch verb {
	case "submit":
		err = submit(store, clk, *name, *figures, *quick, *seed, *shards, *specFile)
	case "run", "resume":
		err = runSweep(store, clk, *name, *owner, *workers, *lease, *bench)
	case "status":
		err = status(store, clk, *name)
	case "export":
		err = export(store, clk, *name)
	default:
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-sweep %s: %v\n", verb, err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: caribou-sweep <verb> [flags]

verbs:
  submit  expand a sweep spec into a sharded manifest of run keys
  run     claim shards and execute their runs into the shared store
  resume  alias of run (done shards are skipped, stale leases stolen)
  status  per-shard progress of a sweep (or list sweeps without -name)
  export  deterministic per-run summaries in manifest order

flags (per verb):
  -cache-dir DIR   store directory (default .caribou-cache)
  -name NAME       sweep name (submit/run/export require it)
  -figures LIST    submit: comma-separated presets fig7,fig8,fig9,fig10
  -quick           submit: mirror caribou-eval -quick reductions
  -seed N          submit: experiment seed (default 17)
  -shards N        submit: number of shards (default 1)
  -spec FILE       submit: JSON SweepSpec file
  -owner ID        run: lease owner identity (default pid-<pid>)
  -workers N       run: concurrent runs per shard (0 = GOMAXPROCS)
  -lease DUR       run: shard lease duration (default 15m)
  -bench LABEL     run: print a benchmark line with the verb's wall time
`)
}

// submit expands the spec sources into a manifest and writes it.
func submit(store *runstore.Store, clk runstore.Clock, name, figures string, quick bool, seed int64, shards int, specFile string) error {
	if name == "" {
		return fmt.Errorf("submit needs -name")
	}
	var spec eval.SweepSpec
	if specFile != "" {
		buf, err := os.ReadFile(specFile)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(buf, &spec); err != nil {
			return fmt.Errorf("spec %s: %w", specFile, err)
		}
	}
	if figures != "" {
		spec.Figures = append(spec.Figures, strings.Split(figures, ",")...)
	}
	if quick {
		spec.Quick = true
	}
	if spec.Seed == 0 {
		spec.Seed = seed
	}
	runs, err := eval.ExpandSweep(spec)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("spec expands to zero runs (give -figures, -spec, or both)")
	}
	man := &runstore.Manifest{Name: name, Schema: eval.ResultSchema, Shards: shards}
	for _, r := range runs {
		cfg, err := json.Marshal(eval.SpecOf(r.Cfg))
		if err != nil {
			return err
		}
		man.Entries = append(man.Entries, runstore.ManifestEntry{
			Key:    runstore.KeyOf(r.Name),
			Name:   r.Name,
			Config: cfg,
		})
	}
	sw, err := runstore.CreateSweep(store, man, clk)
	if err != nil {
		return err
	}
	cached := 0
	for _, e := range man.Entries {
		if store.Has(e.Key) {
			cached++
		}
	}
	fmt.Fprintf(os.Stderr, "[submitted sweep %q: %d runs in %d shards, %d already cached]\n",
		name, len(man.Entries), sw.Manifest().Shards, cached)
	return nil
}

// runSweep claims shards until none are available, executing each
// shard's runs through a store-attached eval pool.
func runSweep(store *runstore.Store, clk runstore.Clock, name, owner string, workers int, lease time.Duration, bench string) error {
	if name == "" {
		return fmt.Errorf("run needs -name")
	}
	if owner == "" {
		owner = fmt.Sprintf("pid-%d", os.Getpid())
	}
	sw, err := runstore.OpenSweep(store, name, clk)
	if err != nil {
		return err
	}
	pool := eval.NewPool(workers)
	pool.AttachStore(store)
	started := clk.Now()

	man := sw.Manifest()
	for {
		shard, ok, err := sw.Claim(owner, lease)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		idxs := man.ShardEntries(shard)
		fmt.Fprintf(os.Stderr, "[%s claimed shard %d: %d runs]\n", owner, shard, len(idxs))
		// Chunk the shard so the lease is renewed between batches: a
		// shard larger than one lease window stays owned as long as this
		// process keeps making progress.
		chunk := 4 * pool.Workers()
		for len(idxs) > 0 {
			n := chunk
			if n > len(idxs) {
				n = len(idxs)
			}
			var cfgs []eval.RunConfig
			for _, ei := range idxs[:n] {
				var rs eval.RunSpec
				if err := json.Unmarshal(man.Entries[ei].Config, &rs); err != nil {
					return fmt.Errorf("shard %d entry %d: %w", shard, ei, err)
				}
				cfg, err := rs.Config()
				if err != nil {
					return fmt.Errorf("shard %d entry %d: %w", shard, ei, err)
				}
				cfgs = append(cfgs, cfg)
			}
			if _, err := pool.RunAll(cfgs); err != nil {
				return fmt.Errorf("shard %d: %w", shard, err)
			}
			idxs = idxs[n:]
			if len(idxs) > 0 {
				if err := sw.Renew(shard, owner, lease); err != nil {
					return fmt.Errorf("shard %d: %w", shard, err)
				}
			}
		}
		if err := sw.MarkDone(shard); err != nil {
			return err
		}
	}

	ps, ss := pool.Stats(), store.Stats()
	fmt.Fprintf(os.Stderr, "[%s done: submitted=%d executed=%d memo=%d disk=%d writes=%d store-corrupt=%d decode-errors=%d]\n",
		owner, ps.Submitted, ps.Executed, ps.Hits, ps.DiskHits, ps.DiskWrites, ss.Corrupt, ps.DiskDecodeErrors)
	if bench != "" {
		elapsed := clk.Now().Sub(started)
		fmt.Printf("Benchmark%s 1 %d ns/op\n", bench, elapsed.Nanoseconds())
	}
	return nil
}

// status prints per-shard progress, or the sweep list without -name.
func status(store *runstore.Store, clk runstore.Clock, name string) error {
	if name == "" {
		names, err := runstore.ListSweeps(store)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	}
	sw, err := runstore.OpenSweep(store, name, clk)
	if err != nil {
		return err
	}
	fmt.Printf("sweep %s: %d runs in %d shards\n", name, len(sw.Manifest().Entries), sw.Manifest().Shards)
	fmt.Printf("%-6s %8s %8s %-6s %-20s %s\n", "shard", "runs", "cached", "done", "owner", "lease")
	for _, st := range sw.Status() {
		leaseState := ""
		if st.Owner != "" {
			leaseState = "live"
			if st.Expired {
				leaseState = "expired"
			}
		}
		done := "-"
		if st.Done {
			done = "done"
		}
		fmt.Printf("%-6d %8d %8d %-6s %-20s %s\n", st.Shard, st.Total, st.Present, done, st.Owner, leaseState)
	}
	return nil
}

// export prints one deterministic summary block per manifest entry, in
// manifest order, accounting each cached result under both transmission
// scenarios. Output depends only on the manifest and the blobs — never
// on which process produced them.
func export(store *runstore.Store, clk runstore.Clock, name string) error {
	sw, err := runstore.OpenSweep(store, name, clk)
	if err != nil {
		return err
	}
	man := sw.Manifest()
	fmt.Printf("sweep %s: %d runs\n", name, len(man.Entries))
	for i, e := range man.Entries {
		var rs eval.RunSpec
		if err := json.Unmarshal(e.Config, &rs); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		cfg, err := rs.Config()
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		payload, ok, err := store.Get(e.Key, man.Schema)
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		if !ok {
			fmt.Printf("%s\n  MISSING\n", e.Name)
			continue
		}
		res, err := eval.DecodeResult(cfg, payload)
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		fmt.Printf("%s\n", e.Name)
		for _, sc := range eval.Scenarios() {
			sum, err := res.Summarize(sc.Tx)
			if err != nil {
				return fmt.Errorf("entry %d (%s): %w", i, sc.Name, err)
			}
			fmt.Printf("  %-5s carbon=%.6f g/inv cost=%.8f $/inv p95=%.3f s (n=%d)\n",
				sc.Name, sum.MeanCarbonG, sum.MeanCostUSD, sum.P95ServiceSec, sum.Invocations)
		}
	}
	return nil
}
