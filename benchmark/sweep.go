package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"caribou/internal/eval"
	"caribou/internal/runstore"
	"caribou/internal/telemetry"
)

// sweep-warm: re-running a sweep the durable store already holds. Set-up
// runs the quick fig7–fig10 sweep cold into a fresh on-disk store (its
// time lands in setup_s, its writes in runstore.put_us); one op re-runs
// the same manifest through a fresh store-attached pool and re-accounts
// every result under both transmission scenarios, as caribou-sweep export
// does. That is runstore reads + eval.DecodeResult + accounting with zero
// solver or executor work: the pool must report executed=0 and the output
// must equal the cold run's byte for byte.

type sweepInstance struct {
	dir  string
	runs []eval.SweepRun
	cfgs []eval.RunConfig
	cold []byte // the cold sweep's export
	// savedPct is Fig 7's best-case geomean reduction over the sweep's
	// fig7 runs.
	savedPct float64
	// stats sums the store activity of the last measure's ops.
	stats runstore.StoreStats
}

func sweepWarm() workload {
	return workload{
		name:      "sweep-warm",
		why:       "warm rerun of the quick fig7-fig10 sweep: runstore reads + DecodeResult + accounting, zero solver/executor work (pool executed must be 0); writes happen in set-up",
		setupReps: 2,
		setup: func(c *ctx, sp *telemetry.Span) (instance, error) {
			if err := os.MkdirAll(c.outDir, 0o755); err != nil {
				return nil, err
			}
			dir, err := os.MkdirTemp(c.outDir, "sweep-store-")
			if err != nil {
				return nil, err
			}
			in := &sweepInstance{dir: dir}
			if err := in.runCold(c.seed, sp); err != nil {
				in.close()
				return nil, err
			}
			return in, nil
		},
	}
}

// runCold executes the sweep into the fresh store.
func (in *sweepInstance) runCold(seed int64, sp *telemetry.Span) error {
	var err error
	in.runs, err = eval.ExpandSweep(eval.SweepSpec{Figures: eval.FigurePresets(), Quick: true, Seed: seed})
	if err != nil {
		return err
	}
	for _, r := range in.runs {
		in.cfgs = append(in.cfgs, r.Cfg)
	}
	pool, _, err := in.attachedPool()
	if err != nil {
		return err
	}
	in.cold, err = in.export(pool, sp)
	if err != nil {
		return err
	}
	// The figure driver submits the same quick configurations, so on this
	// pool it is served from the memo.
	quick := fig7Options(seed, pool)
	quick.PerDay = 0
	rows, err := eval.Fig7(quick)
	if err != nil {
		return err
	}
	in.savedPct = 100 * (1 - eval.Fig7Geomeans(rows)["best"])
	if st := pool.Stats(); st.Executed != len(in.runs) || st.DiskWrites != len(in.runs) {
		return fmt.Errorf("cold sweep: executed %d and wrote %d of %d runs", st.Executed, st.DiskWrites, len(in.runs))
	}
	return nil
}

func (in *sweepInstance) attachedPool() (*eval.Pool, *runstore.Store, error) {
	store, err := runstore.Open(in.dir)
	if err != nil {
		return nil, nil, err
	}
	pool := eval.NewPool(0)
	pool.AttachStore(store)
	return pool, store, nil
}

// export runs the manifest through pool and renders caribou-sweep's
// export block for every run.
func (in *sweepInstance) export(pool *eval.Pool, sp *telemetry.Span) ([]byte, error) {
	var results []*eval.Result
	err := inSpan(sp, "eval.Pool.RunAll", func() (err error) {
		results, err = pool.RunAll(in.cfgs)
		return err
	})
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err = inSpan(sp, "eval.Result.Summarize", func() error {
		for i, res := range results {
			fmt.Fprintf(&out, "%s\n", in.runs[i].Name)
			for _, sc := range eval.Scenarios() {
				sum, err := res.Summarize(sc.Tx)
				if err != nil {
					return fmt.Errorf("%s (%s): %w", in.runs[i].Name, sc.Name, err)
				}
				fmt.Fprintf(&out, "  %-5s carbon=%.6f g/inv cost=%.8f $/inv p95=%.3f s (n=%d)\n",
					sc.Name, sum.MeanCarbonG, sum.MeanCostUSD, sum.P95ServiceSec, sum.Invocations)
			}
		}
		return nil
	})
	return out.Bytes(), err
}

func (in *sweepInstance) op(i int, root *telemetry.Span) error {
	pool, store, err := in.attachedPool()
	if err != nil {
		return err
	}
	out, err := in.export(pool, root)
	if err != nil {
		return err
	}
	st := pool.Stats()
	if st.Executed != 0 || st.DiskHits != len(in.runs) {
		return fmt.Errorf("warm sweep executed %d runs and read %d of %d from the store", st.Executed, st.DiskHits, len(in.runs))
	}
	if !bytes.Equal(out, in.cold) {
		return fmt.Errorf("warm sweep output differs from the cold run's")
	}
	ss := store.Stats()
	in.stats.Hits += ss.Hits
	in.stats.Misses += ss.Misses
	in.stats.Corrupt += ss.Corrupt
	return nil
}

func (in *sweepInstance) measure(c *ctx, warm, d time.Duration) *phase {
	in.stats = runstore.StoreStats{}
	return closedLoop(c, warm, d, in.op)
}

func (in *sweepInstance) carbonSavedPct() float64 { return in.savedPct }

func (in *sweepInstance) close() { _ = os.RemoveAll(in.dir) }

// probe times the store and the codec one blob at a time.
func (in *sweepInstance) probe(c *ctx, ph *phase, m metricSet) {
	root := c.rec.StartSpan("probe")
	defer root.End()

	m["runstore.hit_share"] = ratio(float64(in.stats.Hits), float64(in.stats.Hits+in.stats.Misses+in.stats.Corrupt))

	store, err := runstore.Open(in.dir)
	if err != nil {
		return
	}
	scratch, err := os.MkdirTemp(c.outDir, "sweep-scratch-")
	if err != nil {
		return
	}
	defer os.RemoveAll(scratch)
	putStore, err := runstore.Open(scratch)
	if err != nil {
		return
	}

	var getUs, putUs, decodeMs, encodeMs, summarizeMs, kb []float64
	for _, cfg := range in.cfgs {
		key := runstore.KeyOf(cfg.CanonicalKey())
		var payload []byte
		getUs = append(getUs, 1e3*timeMs(func() {
			_ = inSpan(root, "runstore.Store.Get", func() (err error) {
				payload, _, err = store.Get(key, eval.ResultSchema)
				return err
			})
		}))
		kb = append(kb, float64(len(payload))/1024)
		var res *eval.Result
		decodeMs = append(decodeMs, timeMs(func() {
			_ = inSpan(root, "eval.DecodeResult", func() (err error) {
				res, err = eval.DecodeResult(cfg, payload)
				return err
			})
		}))
		if res == nil {
			continue
		}
		summarizeMs = append(summarizeMs, timeMs(func() {
			_ = inSpan(root, "eval.Result.Summarize", func() error {
				_, err := res.Summarize(eval.Scenarios()[0].Tx)
				return err
			})
		}))
		var blob []byte
		encodeMs = append(encodeMs, timeMs(func() {
			_ = inSpan(root, "eval.EncodeResult", func() (err error) {
				blob, err = eval.EncodeResult(cfg, res)
				return err
			})
		}))
		putUs = append(putUs, 1e3*timeMs(func() {
			_ = inSpan(root, "runstore.Store.Put", func() error { return putStore.Put(key, eval.ResultSchema, blob) })
		}))
	}
	m["runstore.get_us"] = median(getUs)
	m["runstore.put_us"] = median(putUs)
	m["runstore.blob_kb"] = median(kb)
	m["eval.decode_ms"] = median(decodeMs)
	m["eval.encode_ms"] = median(encodeMs)
	m["core.summarize_ms"] = median(summarizeMs)
}
