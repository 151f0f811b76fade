package solver

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"caribou/internal/montecarlo"
	"caribou/internal/region"
)

// exhaustiveCutoff is the search-space size below which exhaustive
// enumeration is cheaper than sampling.
const exhaustiveCutoff = 256

// pruneMargin is the relative slack added to every row prune threshold.
// The bound replay's latency and cost floors are float-exact (bounds.go),
// but its carbon floor sums events where a sample's carbon is priced from
// per-region and per-pair totals, and the prefix-sum floors are
// accumulated in a different association than the lane's own running sum;
// both slacks are O(n·ε) ≈ 1e-13 relative, absorbed with four orders of
// magnitude to spare. The margin only ever keeps a candidate alive longer —
// never prunes one that could win its hour.
const pruneMargin = 1e-9

// withMargin is metric cutoff t with pruneMargin's slack on top.
func withMargin(t float64) float64 { return t + pruneMargin*math.Abs(t) }

// evalChunk bounds how many plans one row sweep carries, whatever the
// worker count: longer job lists split into chunk-grained goroutines so the
// worker bound still applies. Chunk boundaries depend only on the job
// order, never on scheduling. (An HBSS round's ≤ hbssBatch proposals are
// one single-hour sweep.)
const evalChunk = 16

// rowSeries bounds what one row-sweep chunk holds in flight, in hour
// series (lanes × hours): every row lane keeps hours × samples of carbon
// series while it sweeps. A 24-hour window gets 4 lanes per chunk — a lane
// there prices every hour at each tape event, so sharing the event's
// column loads across more lanes buys nothing (4, 8, 16 and 32 lanes time
// the same) while 16 lanes take the heavy-tail solve's peak RSS from 24 to
// 43 MB — and a one-hour window (SolveOne, SolveCoarse), where sharing
// still pays, the full evalChunk.
const rowSeries = 96

// search is the per-solve context: the compiled evaluation snapshot,
// dense per-stage eligibility, the plan table — every assignment the
// solve has met, with its (plan, hour) estimates and its basis — shared
// across HBSS, exhaustive enumeration, and all hourly solves, and the
// semaphore bounding concurrent evaluations.
//
// Determinism: a plan estimate is a pure function of (assignment, hour) —
// the Monte Carlo stream is derived from (seed, workflow), never from
// shared state, and the hour enters only through its intensities — so a
// memo hit is indistinguishable from a fresh computation and neither
// scheduling order nor the worker count can change any result.
type search struct {
	s     *Solver
	snap  *montecarlo.Snapshot
	elig  [][]int // per dense node index: eligible region indices
	space int64

	// mu guards the plan table: the map, the key buffer, every plan's
	// estimates and basis pointer, and the two counters.
	mu     sync.Mutex
	plans  map[string]*plan
	keyBuf []byte
	arena  *montecarlo.BasisArena
	// replayed counts the plans given a basis or swept as an hour row and
	// memoized the (plan, hour) estimates kept, for the solve span.
	replayed, memoized int64

	// sem bounds concurrent Monte Carlo replay across all hours; nil on a
	// serial solver, which runs everything inline.
	sem chan struct{}
}

// plan is the solve's one record of an assignment. hours[h] holds what
// hour h knows about it: the memoized estimate (nil until priced
// unpruned; written under search.mu) and whether that hour's HBSS search
// has visited it (touched by hour h's coordinator alone).
type plan struct {
	assign []int
	hours  []planHour
	// basis memoizes the plan's hour-free replay (montecarlo.Basis): the
	// first hour that wants the plan replays it, every later hour prices
	// the cached series, and the basis grows only when an hour needs a
	// batch boundary no earlier hour reached. Blocks come from the
	// search's arena. Row sweeps keep their bases per chunk instead.
	basis *montecarlo.Basis
}

type planHour struct {
	est  *montecarlo.Estimate
	seen bool
}

// release returns the basis slabs to their pool; the bases are dead
// afterwards. Solve entry points defer it.
func (c *search) release() {
	c.arena.Release()
	c.plans = nil
}

// intern returns the plan record of assign, made from a copy of it on
// first sight. The key — two bytes per stage — is built in a reused
// buffer, so looking up a known plan allocates nothing. Callers hold mu.
func (c *search) intern(assign []int) *plan {
	buf := c.keyBuf[:0]
	for _, r := range assign {
		buf = append(buf, byte(r), byte(r>>8))
	}
	c.keyBuf = buf
	p := c.plans[string(buf)]
	if p == nil {
		p = &plan{assign: slices.Clone(assign), hours: make([]planHour, c.snap.NumHours())}
		c.plans[string(buf)] = p
	}
	return p
}

// newSearch compiles the solver's Inputs into a snapshot covering the
// given solve instants. Only the home region and regions eligible for at
// least one stage are interned.
func (s *Solver) newSearch(hours []time.Time, now time.Time) (*search, error) {
	used := map[region.ID]bool{s.in.Home(): true}
	for _, n := range s.order {
		for _, r := range s.eligible[n] {
			used[r] = true
		}
	}
	var ids []region.ID
	for _, id := range s.in.Catalogue().IDs() {
		if used[id] {
			ids = append(ids, id)
		}
	}
	snap, err := s.est.Compile(ids, hours, now)
	if err != nil {
		return nil, err
	}
	// The tape is per-snapshot, so one lazily compiled tape is shared —
	// read-only after each extension — by every estimate this search
	// performs: HBSS rounds, exhaustive enumeration, the coarse baseline,
	// and all hourly solves.
	snap.SetTapes(!s.untaped)
	elig := make([][]int, len(s.order))
	for i, n := range s.order {
		for _, rid := range s.eligible[n] {
			idx, ok := snap.RegionIndex(rid)
			if !ok {
				return nil, fmt.Errorf("solver: region %q not interned", rid)
			}
			elig[i] = append(elig[i], idx)
		}
	}
	c := &search{
		s:     s,
		snap:  snap,
		elig:  elig,
		space: s.searchSpace(),
		plans: make(map[string]*plan),
		arena: montecarlo.NewBasisArena(),
	}
	if s.workers > 1 {
		c.sem = make(chan struct{}, s.workers)
	}
	return c, nil
}

// forEach runs fn(0) … fn(n-1): inline on a serial solver, otherwise each
// call under an evaluation slot — concurrently when there is more than one
// — so Monte Carlo work stays bounded by the worker count however many
// coordinators fan out at once.
func (c *search) forEach(n int, fn func(i int)) {
	switch {
	case c.sem == nil:
		for i := 0; i < n; i++ {
			fn(i)
		}
	case n == 1:
		c.sem <- struct{}{}
		fn(0)
		<-c.sem
	default:
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c.sem <- struct{}{}
				fn(i)
				<-c.sem
			}(i)
		}
		wg.Wait()
	}
}

// batchMetric maps the solver priority onto the row sweep's pruning
// metric — the same mean metricOf reads.
func batchMetric(p Priority) montecarlo.BatchMetric {
	switch p {
	case PriorityCost:
		return montecarlo.BatchCostMean
	case PriorityLatency:
		return montecarlo.BatchLatencyMean
	default:
		return montecarlo.BatchCarbonMean
	}
}

// evalAll interns the assignments (appending their plans to plans) and
// leaves each plan's estimate at hour h in its hours[h].est: memo hits
// stand, misses are deduplicated, computed, and memoized. Errors surface
// in first-assignment order so failure behaviour is as deterministic as
// success. The assignments are copied on first sight, never retained.
//
// A miss is priced from its plan's basis (montecarlo.EstimateBases over the
// one-hour window, unpruned): plans new to the solve replay their first
// batch together in one shared sweep, a plan some hour already replayed
// costs only the pricing of this hour, and a basis another hour's
// coordinator is working on is waited for without holding an evaluation
// slot — the calling coordinator holds none; replay takes one inside the
// sweep, after the basis lock. With UntapedEstimates, EstimateBases itself
// evaluates every miss as a plain untaped Estimate under an evaluation
// slot, one after the other.
func (c *search) evalAll(assigns [][]int, h int, plans []*plan) ([]*plan, error) {
	jobs := make([]*plan, 0, len(assigns)) // each unmemoized plan, at its first occurrence
	bases := make([]*montecarlo.Basis, 0, len(assigns))
	var hits, basisHits int64
	c.mu.Lock()
	for _, a := range assigns {
		p := c.intern(a)
		plans = append(plans, p)
		if p.hours[h].est != nil {
			hits++
			continue
		}
		if slices.Contains(jobs, p) {
			continue
		}
		jobs = append(jobs, p)
		if p.basis == nil {
			var err error
			if p.basis, err = c.snap.NewBasis(c.arena, p.assign); err != nil {
				c.mu.Unlock()
				return nil, err
			}
			c.replayed++
		} else {
			basisHits++
		}
		bases = append(bases, p.basis)
	}
	c.mu.Unlock()
	c.s.tel.memoHits.Add(hits)
	c.s.tel.basisHits.Add(basisHits)
	c.s.tel.estimates.Add(int64(len(jobs)))
	if len(jobs) == 0 {
		return plans, nil
	}

	ests, err := c.snap.EstimateBases(bases, h, 1, nil, c.sem)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	for j, p := range jobs {
		p.hours[h].est = ests[j][0]
	}
	c.memoized += int64(len(jobs))
	c.mu.Unlock()
	return plans, nil
}

// evalRows returns, for distinct assignments, their estimates at every
// hour of the compiled window: rows[i][h]. Memoized (plan, hour) pairs are
// returned directly; a plan with any pair missing is evaluated as one hour
// row through a montecarlo sweep over the whole window, where one pass over
// the tape prices every hour (hour by hour through untaped Estimates with
// UntapedEstimates), in chunks of at most rowSeries hour series across the
// worker semaphore. prune carries the per-hour abandonment thresholds (nil
// disables pruning; the untaped path never prunes): a nil entry means the
// sweep proved that plan's priority metric at that hour exceeds the hour's
// threshold, and — the proof being relative to this call — is not memoized.
//
// With prune.Park set, a plan whose first block proves its stop at every
// hour is parked there unpriced (montecarlo.RowPrune); tighten turns the
// parked plans' screens into the thresholds of a second sweep, which prices
// them only where they still contend. Both threshold sets are fixed before
// the sweep that reads them prices anything, so results and counters do not
// depend on the worker count or the chunking.
func (c *search) evalRows(assigns [][]int, prune *montecarlo.RowPrune, tighten func([]*montecarlo.Basis) *montecarlo.RowPrune) ([][]*montecarlo.Estimate, error) {
	H := c.snap.NumHours()
	rows := make([][]*montecarlo.Estimate, len(assigns))
	type job struct {
		p *plan
		i int
	}
	var jobs []job
	var hits, misses int64
	cells := make([]*montecarlo.Estimate, len(assigns)*H)
	c.mu.Lock()
	for i, a := range assigns {
		p := c.intern(a)
		row := cells[i*H : (i+1)*H : (i+1)*H]
		missing := 0
		for h := range row {
			if row[h] = p.hours[h].est; row[h] == nil {
				missing++
			}
		}
		rows[i] = row
		hits += int64(H - missing)
		misses += int64(missing)
		if missing > 0 {
			jobs = append(jobs, job{p, i})
		}
	}
	c.replayed += int64(len(jobs))
	c.mu.Unlock()
	c.s.tel.memoHits.Add(hits)
	c.s.tel.estimates.Add(misses)
	if len(jobs) == 0 {
		return rows, nil
	}

	ests := make([][]*montecarlo.Estimate, len(jobs))
	bases := make([]*montecarlo.Basis, len(jobs))
	errs := make([]error, len(jobs))
	// Short job lists split finer still, so every worker gets a chunk:
	// row results do not depend on how lanes are grouped. A chunk's bases
	// live in its own arena — cache-hot, released with the chunk — except
	// those the sweep parks, which it moves to prune.Park.
	chunk := max(1, min(evalChunk, rowSeries/H, (len(jobs)+c.s.workers-1)/c.s.workers))
	c.forEach((len(jobs)+chunk-1)/chunk, func(k int) {
		lo, hi := k*chunk, min((k+1)*chunk, len(jobs))
		arena := montecarlo.NewBasisArena()
		defer arena.Release()
		for j := lo; j < hi; j++ {
			if bases[j], errs[lo] = c.snap.NewBasis(arena, jobs[j].p.assign); errs[lo] != nil {
				return
			}
		}
		var es [][]*montecarlo.Estimate
		if es, errs[lo] = c.snap.EstimateBases(bases[lo:hi], 0, H, prune, nil); errs[lo] == nil {
			copy(ests[lo:hi], es)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The parked plans, in one sweep of their own: nearly every cell is
	// screened against the tightened thresholds, a few per hour are priced.
	var parked []*montecarlo.Basis
	var at []int
	for j, b := range bases {
		if b.Parked() != nil {
			parked, at = append(parked, b), append(at, j)
		}
	}
	if len(parked) > 0 {
		var es [][]*montecarlo.Estimate
		var err error
		c.forEach(1, func(int) { es, err = c.snap.EstimateBases(parked, 0, H, tighten(parked), nil) })
		if err != nil {
			return nil, err
		}
		for t, j := range at {
			ests[j] = es[t]
		}
	}

	c.mu.Lock()
	for j, jb := range jobs {
		row := rows[jb.i]
		for h, est := range ests[j] {
			if row[h] != nil || est == nil {
				continue // memoized already, or pruned against this call's thresholds
			}
			jb.p.hours[h].est, row[h] = est, est
			c.memoized++
		}
	}
	c.mu.Unlock()
	return rows, nil
}

// denseResult pairs a dense assignment with its estimate.
type denseResult struct {
	assign []int
	est    *montecarlo.Estimate
}

// solveAllHours solves every hour of the compiled window: small spaces by
// one exhaustive enumeration priced at all hours, larger ones by one HBSS
// search per hour. The hourly searches fan across goroutines; their
// coordinators hold no evaluation slots — the shared semaphore bounds
// actual Monte Carlo work at the configured worker count — and each
// hour's outcome is independent of the others, so the fan-out cannot
// perturb results.
func (c *search) solveAllHours() ([]Result, error) {
	if c.space <= exhaustiveCutoff {
		return c.solveExhaustive()
	}
	n := c.snap.NumHours()
	results := make([]Result, n)
	errs := make([]error, n)
	solve := func(h int) {
		home, err := c.evalAll([][]int{c.snap.HomeAssign()}, h, nil)
		if err != nil {
			errs[h] = err
			return
		}
		best, err := c.solveHBSS(h, home[0])
		results[h], errs[h] = Result{c.snap.PlanOf(best.assign), best.est}, err
	}
	if c.sem == nil {
		for h := 0; h < n; h++ {
			solve(h)
		}
	} else {
		var wg sync.WaitGroup
		for h := 0; h < n; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				solve(h)
			}(h)
		}
		wg.Wait()
	}
	for h, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("hour %d: %w", h, err)
		}
	}
	return results, nil
}

// solveExhaustive enumerates the full plan space once, in odometer order
// (the same order as the pre-snapshot recursive walk), evaluates the home
// row and then every plan's hour row through the pool, and picks each
// hour's winner by a sequential scan in enumeration order.
func (c *search) solveExhaustive() ([]Result, error) {
	// One backing array for all of them: the plan table keeps its own copy.
	n := len(c.elig)
	flat := make([]int, 0, int(c.space)*n)
	all := make([][]int, 0, c.space)
	cur := make([]int, n)
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			flat = append(flat, cur...)
			all = append(all, flat[len(flat)-n:len(flat):len(flat)])
			return
		}
		for _, r := range c.elig[i] {
			cur[i] = r
			walk(i + 1)
		}
	}
	walk(0)

	homeAssign := c.snap.HomeAssign()
	homeRows, err := c.evalRows([][]int{homeAssign}, nil, nil)
	if err != nil {
		return nil, err
	}
	home := homeRows[0]
	// An hour's winner is the argmin starting from home, so any candidate
	// whose priority metric there provably exceeds the home metric (plus
	// the bound slack margin) can be abandoned mid-sweep: best only improves
	// on home, hence a pruned candidate can never be the final argmin. The
	// bound looks ahead as far as the home row sampled at that hour.
	prio := c.s.obj.Priority
	prune := &montecarlo.RowPrune{
		Metric:    batchMetric(prio),
		Threshold: make([]float64, len(home)),
		Horizon:   make([]int, len(home)),
		Park:      c.arena,
	}
	for h, est := range home {
		prune.Threshold[h] = withMargin(metricOf(est, prio))
		prune.Horizon[h] = est.Samples
	}
	// A parked plan whose p95s — its first block's own — keep the latency and
	// cost tolerances at hour h is a feasible candidate there whose exact
	// metric is its screen mean, to 4e-13: no cell above that mean plus the
	// margin can be the hour's argmin either, and everything within the
	// margin of the minimum is still priced exactly, so ties resolve as
	// before. That holds because tolerances bound only the hour-free latency
	// and cost p95s, never CarbonP95.
	tighten := func(parked []*montecarlo.Basis) *montecarlo.RowPrune {
		tight := montecarlo.RowPrune{Metric: prune.Metric, Threshold: slices.Clone(prune.Threshold), Horizon: prune.Horizon}
		for _, b := range parked {
			sc := b.Parked()
			est := sc.Estimate
			for h, m := range sc.Carbon {
				est.CarbonMean = m
				if !c.s.violates(&est, home[h]) {
					tight.Threshold[h] = min(tight.Threshold[h], withMargin(metricOf(&est, prio)))
				}
			}
		}
		return &tight
	}
	rows, err := c.evalRows(all, prune, tighten)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(home))
	for h := range results {
		best := denseResult{homeAssign, home[h]}
		for i, row := range rows {
			est := row[h]
			if est == nil {
				continue // pruned: metric above the home baseline
			}
			if c.s.violates(est, home[h]) {
				continue
			}
			if metricOf(est, prio) < metricOf(best.est, prio) {
				best = denseResult{all[i], est}
			}
		}
		results[h] = Result{c.snap.PlanOf(best.assign), best.est}
	}
	return results, nil
}

// rankedEligible orders each stage's eligible regions by ascending grid
// intensity at hour h — the greedy heuristic HBSS biases toward. The
// ranking reads the snapshot's pre-resolved intensity table, sorts with
// sort.Slice (region index breaks ties, keeping the order total and
// deterministic), and is computed once per (stage, hour), shared by every
// HBSS iteration of that hour.
func (c *search) rankedEligible(h int) [][]int {
	out := make([][]int, len(c.elig))
	for i, elig := range c.elig {
		rs := append([]int(nil), elig...)
		sort.Slice(rs, func(a, b int) bool {
			va, vb := c.snap.IntensityIdx(h, rs[a]), c.snap.IntensityIdx(h, rs[b])
			if va != vb {
				return va < vb
			}
			return rs[a] < rs[b]
		})
		out[i] = rs
	}
	return out
}
