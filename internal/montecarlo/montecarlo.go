// Package montecarlo estimates end-to-end latency, cost, and carbon of a
// deployment plan for a (possibly conditional) workflow DAG by Monte Carlo
// simulation (§7.1): edge invocation probabilities are sampled to decide
// which branches run, node execution times and transmission latencies are
// drawn from learned distributions, and the critical path of the realized
// partial DAG yields the end-to-end time. Sampling proceeds in batches of
// 200 until the coefficients of variation of latency, cost, and carbon all
// drop below 0.05, or 2,000 samples are reached. The distribution means
// are the "average case" used for plan ordering; the 95th percentiles are
// the "tail case" checked against QoS tolerances.
package montecarlo

import (
	"math"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/stats"
	"caribou/internal/telemetry"
)

// Stopping rule constants from §7.1.
const (
	BatchSize  = 200
	MaxSamples = 2000
	TargetCV   = 0.05
)

// controlBytes is the fixed size of orchestration messages (invoke
// notifications, annotations) added on top of payload bytes. Shared by
// the untaped sampler, the tape compiler and the tests' per-event oracle so
// all three model the same wire traffic.
const controlBytes = 2e3

// Inputs supplies the learned and external metrics the estimator samples
// from; *metrics.Manager implements it.
type Inputs interface {
	DAG() *dag.DAG
	Home() region.ID
	Catalogue() *region.Catalogue
	ExecDuration(node dag.NodeID, r region.ID) (*stats.Distribution, error)
	CPUUtil(node dag.NodeID) float64
	MemoryMB(node dag.NodeID) float64
	EdgeBytes(from, to dag.NodeID) *stats.Distribution
	EntryBytes() *stats.Distribution
	OutputBytes(node dag.NodeID) *stats.Distribution
	EdgeProbability(e dag.Edge) float64
	TransferSeconds(from, to region.ID, bytes float64) float64
	MessageOverheadSeconds() float64
	KVAccessSeconds(from region.ID) float64
	CostBook() *pricing.Book
	// IntensityAt returns the measured or forecast grid intensity of
	// region r at t, given the solve time now.
	IntensityAt(r region.ID, t time.Time, now time.Time) (float64, error)
}

// Estimate summarizes the sampled distributions.
type Estimate struct {
	Samples int
	// Latency in seconds, cost in USD, carbon in grams CO2-eq per
	// invocation.
	LatencyMean, LatencyP95 float64
	CostMean, CostP95       float64
	CarbonMean, CarbonP95   float64
	Converged               bool
}

// Estimator is a compile handle: the Inputs, transmission model and seed
// every Snapshot of one workflow is compiled from.
type Estimator struct {
	in   Inputs
	tx   carbon.TransmissionModel
	seed int64
}

// mcTelemetry holds the sampling counters, captured at Compile; nil-safe
// no-ops when telemetry is off. The counters are bumped once per Estimate
// call — never inside the sampling loop — so the instrumented hot path is
// unchanged.
type mcTelemetry struct {
	rec       *telemetry.Recorder // sweeps time their sections with rec.Lap
	estimates *telemetry.Counter
	samples   *telemetry.Counter
	// Tape accounting (tape.go): batches/samples compiled onto the solve's
	// tape, and samples evaluated by replay. tapeSamples counts drawing
	// work done once per solve; tapeReplays counts evaluations served from
	// it — their ratio is the common-random-number amortization factor.
	// boundBakeSamples counts the per-hour work that remains: samples whose
	// pruning bounds a prune check had an hour bake (bounds.go).
	tapeBatches      *telemetry.Counter
	tapeSamples      *telemetry.Counter
	tapeReplays      *telemetry.Counter
	boundBakeSamples *telemetry.Counter
	// Sweep accounting (basis.go, batch.go): sweeps run and the lanes —
	// plans — they carried, plan-batches replayed onto bases —
	// samples/tapeReplays count each such sample once per plan, however many
	// hours it is then priced at — (sample, hour) pairs priced, (plan, hour)
	// cells abandoned mid-sweep by the exact bound-based pruning rule, and
	// cells the screen clause closed unpriced.
	sweeps           *telemetry.Counter
	sweepLanes       *telemetry.Counter
	basisReplays     *telemetry.Counter
	hourPrices       *telemetry.Counter
	prunedCandidates *telemetry.Counter
	screened         *telemetry.Counter
}

func newMCTelemetry() mcTelemetry {
	rec := telemetry.Default()
	return mcTelemetry{
		rec:              rec,
		estimates:        rec.Counter("montecarlo.estimates"),
		samples:          rec.Counter("montecarlo.samples"),
		tapeBatches:      rec.Counter("montecarlo.tape_batches"),
		tapeSamples:      rec.Counter("montecarlo.tape_samples"),
		tapeReplays:      rec.Counter("montecarlo.tape_replays"),
		boundBakeSamples: rec.Counter("montecarlo.bound_bake_samples"),
		sweeps:           rec.Counter("montecarlo.sweeps"),
		sweepLanes:       rec.Counter("montecarlo.sweep_lanes"),
		basisReplays:     rec.Counter("montecarlo.basis_replays"),
		hourPrices:       rec.Counter("montecarlo.hour_prices"),
		prunedCandidates: rec.Counter("montecarlo.pruned_candidates"),
		screened:         rec.Counter("montecarlo.screened_candidates"),
	}
}

// New returns an estimator using the given transmission-carbon model.
func New(in Inputs, tx carbon.TransmissionModel, seed int64) *Estimator {
	return &Estimator{in: in, tx: tx, seed: seed}
}

// Estimate evaluates plan as if in effect at `at`, solving at `now`
// (carbon beyond now comes from forecasts): a one-instant Snapshot over
// the whole catalogue, priced once.
func (e *Estimator) Estimate(plan dag.Plan, at, now time.Time) (*Estimate, error) {
	snap, err := e.Compile(nil, []time.Time{at}, now)
	if err != nil {
		return nil, err
	}
	return snap.EstimatePlan(plan, 0)
}

// seriesAcc accumulates the per-sample series and applies the batched
// stopping rule. The compiled Snapshot and the tests' per-event oracle
// share it so both summarize with identical arithmetic.
type seriesAcc struct {
	lat, cost, carb []float64
	done            bool
	// Means computed by the last converged() call, valid while the series
	// still holds meanAt samples. summarize reuses them instead of
	// re-averaging the three largest series: stats.Mean is deterministic,
	// so the cached values are bit-identical to a recomputation.
	latMean, costMean, carbMean float64
	meanAt                      int
}

func (a *seriesAcc) samples() int { return len(a.lat) }

// reset clears the accumulator for reuse, keeping the slice capacity so a
// pooled accumulator stops allocating after its first estimate.
func (a *seriesAcc) reset() {
	a.lat = a.lat[:0]
	a.cost = a.cost[:0]
	a.carb = a.carb[:0]
	a.done = false
	a.meanAt = 0
}

func (a *seriesAcc) add(s sample) {
	if a.lat == nil {
		// Most estimates converge within the first batch; reserving it up
		// front avoids regrowing three slices through the hot loop.
		a.lat = make([]float64, 0, BatchSize)
		a.cost = make([]float64, 0, BatchSize)
		a.carb = make([]float64, 0, BatchSize)
	}
	a.lat = append(a.lat, s.latency)
	a.cost = append(a.cost, s.cost)
	a.carb = append(a.carb, s.execCarbon+s.txCarbon)
}

func (a *seriesAcc) converged() bool {
	var latCV, costCV, carbCV float64
	a.latMean, latCV = meanCV(a.lat)
	a.costMean, costCV = meanCV(a.cost)
	a.carbMean, carbCV = meanCV(a.carb)
	a.meanAt = len(a.lat)
	if latCV < TargetCV && costCV < TargetCV && carbCV < TargetCV {
		a.done = true
	}
	return a.done
}

func (a *seriesAcc) summarize() (*Estimate, error) {
	est := &Estimate{
		Samples:   len(a.lat),
		Converged: a.done,
	}
	if a.meanAt == len(a.lat) {
		est.LatencyMean, est.CostMean, est.CarbonMean = a.latMean, a.costMean, a.carbMean
	} else {
		est.LatencyMean = stats.Mean(a.lat)
		est.CostMean = stats.Mean(a.cost)
		est.CarbonMean = stats.Mean(a.carb)
	}
	// summarize is the accumulator's last read before reset, so the
	// in-place percentile (identical values, permuted storage) is safe.
	var err error
	if est.LatencyP95, err = stats.PercentileInPlace(a.lat, 95); err != nil {
		return nil, err
	}
	if est.CostP95, err = stats.PercentileInPlace(a.cost, 95); err != nil {
		return nil, err
	}
	if est.CarbonP95, err = stats.PercentileInPlace(a.carb, 95); err != nil {
		return nil, err
	}
	return est, nil
}

// meanCV returns the series mean and the coefficient of variation of the
// *estimated mean* (standard error over mean): the convergence criterion
// for the batched sampling. The mean is returned so callers can cache it
// for the summary instead of averaging the series again.
func meanCV(xs []float64) (mean, cv float64) {
	m, v := stats.MeanVariance(xs)
	if m == 0 {
		return m, 0
	}
	se := math.Sqrt(v) / math.Sqrt(float64(len(xs)))
	return m, math.Abs(se / m)
}

type sample struct {
	latency    float64
	cost       float64
	execCarbon float64
	txCarbon   float64
}
