package solver

import (
	"math"
	"strconv"

	"caribou/internal/simclock"
)

// Heuristic-Biased Stochastic Sampling (Alg. 1). Hyper-parameters follow
// the paper's empirically determined values: α = |N|·|R|·6 iterations,
// bias β = 0.2, initial temperature γ = 1.0 cooled by 0.99 per accepted
// move.
const (
	alphaFactor = 6
	biasBeta    = 0.2
	gammaInit   = 1.0
	gammaCool   = 0.99
)

// hbssBatch is the number of speculative HBSS iterations generated per
// round. All proposals of a round derive from the round-start incumbent
// and evaluate concurrently; acceptance then replays sequentially in
// iteration order. The constant is deliberately independent of the worker
// count so the search trajectory is identical at any parallelism.
const hbssBatch = 16

// solveHBSS runs the batched, deterministic variant of Alg. 1 from the
// home deployment. Iteration i draws all of its randomness — the
// perturbation and the pre-drawn acceptance uniform — from an independent
// stream DeriveRand(seed, "solver/<at>/<i>"), so a proposal depends only
// on (seed, hour, iteration, incumbent) and never on which goroutine
// evaluated it.
//
//caribou:hot
func (c *search) solveHBSS(h int, homePlan *plan) (denseResult, error) {
	s := c.s
	home := denseResult{homePlan.assign, homePlan.hours[h].est}
	regionsPerNode := 0
	for _, e := range c.elig {
		if len(e) > regionsPerNode {
			regionsPerNode = len(e)
		}
	}
	alpha := len(c.elig) * regionsPerNode * alphaFactor
	if s.maxIter > 0 && alpha > s.maxIter {
		alpha = s.maxIter
	}

	ranked := c.rankedEligible(h)
	atUnix := c.snap.HourTime(h).Unix()

	// Stream labels are "solver/<at>/<i>". Building them with
	// strconv.AppendInt into a reused buffer keeps the bytes — and hence
	// every derived seed — identical to the former fmt.Sprintf while
	// dropping the per-iteration format-parsing cost.
	labelPrefix := "solver/" + strconv.FormatInt(atUnix, 10) + "/"
	labelBuf := make([]byte, 0, len(labelPrefix)+20)

	gamma := gammaInit
	current := home
	best := home
	// The search's visited set is the seen flag of each plan's hour h.
	homePlan.hours[h].seen = true
	explored := int64(1)

	// A round's proposals (views of one flat scratch array — the plan table
	// copies an assignment only when it is new to the solve), their plans
	// and pre-drawn acceptance uniforms live in buffers reused by every
	// round.
	n := len(c.elig)
	scratch := make([]int, hbssBatch*n)
	assigns := make([][]int, 0, hbssBatch)
	plans := make([]*plan, 0, hbssBatch)
	uAccept := make([]float64, 0, hbssBatch)

	for iter := 0; iter < alpha; {
		end := min(iter+hbssBatch, alpha)
		assigns, uAccept = assigns[:0], uAccept[:0]
		for i := iter; i < end; i++ {
			labelBuf = append(labelBuf[:0], labelPrefix...)
			labelBuf = strconv.AppendInt(labelBuf, int64(i), 10)
			rng := simclock.AcquireDerived(s.seed, string(labelBuf))
			nd := scratch[len(assigns)*n:][:n:n]
			propose(nd, current.assign, ranked, rng)
			uAccept = append(uAccept, rng.Float64())
			rng.Release()
			assigns = append(assigns, nd)
		}
		iter = end

		// Previously seen (plan, hour) pairs are memoized and plans some
		// other hour already replayed are priced from their bases, so
		// evaluating the whole round replays only the plans new to the
		// solve — together, in one sweep.
		s.tel.hbssBatches.Inc()
		var err error
		if plans, err = c.evalAll(assigns, h, plans[:0]); err != nil {
			return denseResult{}, err
		}

		// Sequential acceptance replay, identical at any worker count.
		for j, p := range plans {
			if p.hours[h].seen {
				continue
			}
			p.hours[h].seen = true
			explored++
			est := p.hours[h].est
			if s.violates(est, home.est) {
				continue
			}
			cand := denseResult{p.assign, est}
			accept := metricOf(cand.est, s.obj.Priority) < metricOf(current.est, s.obj.Priority) ||
				acceptWorse(uAccept[j], gamma, current, cand, s.obj.Priority)
			if accept {
				current = cand
				gamma *= gammaCool
				if metricOf(cand.est, s.obj.Priority) < metricOf(best.est, s.obj.Priority) {
					best = cand
				}
			}
			if explored >= c.space {
				return best, nil // complete exploration
			}
		}
	}
	return best, nil
}

// propose writes a perturbation of the incumbent cur into nd: 1 +
// Geometric(1/2) stages (capped at |N|) are reassigned, each drawn from
// the hour's intensity ranking with geometric bias β^rank, so low-carbon
// regions are proposed most often but the whole space stays reachable.
func propose(nd, cur []int, ranked [][]int, rng *simclock.Rand) {
	copy(nd, cur)
	k := 1
	for k < len(nd) && rng.Bool(0.5) {
		k++
	}
	perm := rng.Perm(len(nd))
	for _, idx := range perm[:k] {
		nd[idx] = pickBiased(ranked[idx], rng)
	}
}

// pickBiased selects from a ranked list with geometric weights β^rank.
func pickBiased(ranked []int, rng *simclock.Rand) int {
	if len(ranked) == 1 {
		return ranked[0]
	}
	total := 0.0
	w := 1.0
	for range ranked {
		total += w
		w *= biasBeta
	}
	u := rng.Float64() * total
	w = 1.0
	for _, r := range ranked {
		if u < w {
			return r
		}
		u -= w
		w *= biasBeta
	}
	return ranked[len(ranked)-1]
}

// acceptWorse is the stochastic acceptance of Alg. 1 (MUT): accept a
// non-improving deployment when the iteration's pre-drawn uniform falls
// below exp(-Δ/γ), where Δ is the relative metric regression. Cooling γ
// makes the search increasingly greedy.
func acceptWorse(u, gamma float64, cd, nd denseResult, p Priority) bool {
	denom := metricOf(cd.est, p)
	if denom <= 0 {
		denom = 1e-12
	}
	delta := math.Abs(metricOf(cd.est, p)-metricOf(nd.est, p)) / denom
	return u < math.Exp(-delta/gamma)
}
