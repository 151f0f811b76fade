// stream.go holds the §5.2 decision itself. A Stream is one workflow's
// token bucket: tokens accrue from traffic, a due check closes the accrual
// period, schedules the next check, expires the active plan and picks the
// granularity the budget affords, and a completed solve is debited and
// moves the plan-stability backoff. Manager.Tick drives it from a pulled
// metric window; the control plane (internal/controlplane) drives one per
// registered tenant from pushed trace deltas. The Stream performs no
// solves and reads no clock, so it stays deterministic under any request
// interleaving that preserves a tenant's own event order.
package manager

import (
	"fmt"
	"math"
	"time"

	"caribou/internal/dag"
)

// Granularity is the plan resolution a budget decision affords.
type Granularity int

// Budget decision outcomes: no solve, one daily plan reused for all 24
// hours, or a full 24-plan hourly solve (§5.2 granularity adaptation).
const (
	GranularityNone Granularity = iota
	GranularityDaily
	GranularityHourly
)

func (g Granularity) String() string {
	switch g {
	case GranularityDaily:
		return "daily"
	case GranularityHourly:
		return "hourly"
	case GranularityNone:
		return "none"
	}
	return fmt.Sprintf("granularity(%d)", int(g))
}

// Stream is the token bucket for one workflow. All times are the caller's
// virtual time; the Stream never reads a clock. Methods must be called
// from one goroutine at a time (the control plane runs each tenant's jobs
// under the tenant's lock).
type Stream struct {
	tokens float64

	// periodStart and periodEarned track the current accrual period —
	// everything earned since the last check — whose earning rate feeds
	// the cadence rule.
	periodStart  time.Time
	periodEarned float64

	nextDue    time.Time
	planExpiry time.Time // zero before the first solve

	// lastPlans and stabilityFactor implement the learning-phase
	// behaviour of Fig 11: while consecutive solves produce similar
	// 24-hour plan sets, checks back off multiplicatively; a shift in
	// the produced plans resets the cadence.
	lastPlans       *dag.HourlyPlans
	stabilityFactor float64

	solves int
}

// NewStream builds a stream whose first check is due at start when it is
// granted InitialTokens (the learning phase runs on the grant, as in
// Fig 6), and MinCheckInterval later otherwise: an empty bucket has no
// window to price yet.
func NewStream(cfg Config, start time.Time) *Stream {
	s := &Stream{tokens: cfg.InitialTokens, periodStart: start, nextDue: start, stabilityFactor: 1}
	if cfg.InitialTokens <= 0 {
		s.nextDue = start.Add(MinCheckInterval)
	}
	return s
}

// Tokens reports the current carbon budget in grams.
func (s *Stream) Tokens() float64 { return s.tokens }

// Solves reports how many plan generations have been charged.
func (s *Stream) Solves() int { return s.solves }

// NextDue reports when the next budget check becomes due.
func (s *Stream) NextDue() time.Time { return s.nextDue }

// PeriodStart reports when the current accrual period began: the last
// check, or the stream's start.
func (s *Stream) PeriodStart() time.Time { return s.periodStart }

// PlanExpiry reports when the active plan set expires (zero before the
// first solve).
func (s *Stream) PlanExpiry() time.Time { return s.planExpiry }

// Accrue converts traffic into tokens under the §5.2 accrual rule and
// returns the amount earned. Intensities are the home region's and the
// greenest reachable region's (Window.Spread).
func (s *Stream) Accrue(invocations int, meanRuntimeSec, homeIntensity, minIntensity float64) float64 {
	earned := TrafficTokens(invocations, meanRuntimeSec, homeIntensity, minIntensity)
	s.tokens += earned
	s.periodEarned += earned
	return earned
}

// Due reports whether a budget check should run at now.
func (s *Stream) Due(now time.Time) bool { return !now.Before(s.nextDue) }

// Decide reports the granularity the current budget affords given the two
// solve costs — the granularity-adaptation rule of §5.2: a full hourly
// solve when tokens cover it, a downgraded single daily solve when they
// cover only that, otherwise nothing. Pass an infinite hourlyCost to pin
// a workflow to daily granularity. Decide changes nothing.
func (s *Stream) Decide(hourlyCost, dailyCost float64) Granularity {
	switch {
	case s.tokens >= hourlyCost:
		return GranularityHourly
	case s.tokens >= dailyCost:
		return GranularityDaily
	}
	return GranularityNone
}

// Check runs one due budget check at now, in Fig 11's order. It closes the
// accrual period and schedules the next check from that period's earning
// rate, the pre-solve balance and the pre-solve backoff, pricing the
// finest granularity the workflow may buy (daily when hourlyCost is
// infinite). It expires the active plan — a due check expires the
// pre-determined deployment (§5.2) — and reports what Decide affords; a
// caller that then solves reports it with NoteSolve.
func (s *Stream) Check(now time.Time, hourlyCost, dailyCost float64) Granularity {
	periodHours := now.Sub(s.periodStart).Hours()
	if periodHours <= 0 {
		periodHours = MinCheckInterval.Hours()
	}
	finest := hourlyCost
	if math.IsInf(finest, 1) {
		finest = dailyCost
	}
	s.nextDue = now.Add(scheduleInterval(s.tokens, finest, s.periodEarned/periodHours, s.stabilityFactor))
	s.periodStart, s.periodEarned = now, 0
	if s.planExpiry.After(now) {
		s.planExpiry = now
	}
	return s.Decide(hourlyCost, dailyCost)
}

// NoteSolve debits a solve completed at the check at now, whatever its
// rollout's outcome, and updates the plan-stability backoff. The new plan
// set lives until the check Check scheduled plus one hour of slack (or
// PlanValidity if longer): the next check, not the clock, is what
// normally expires plans.
func (s *Stream) NoteSolve(now time.Time, cost float64, plans dag.HourlyPlans) {
	s.tokens -= cost
	s.solves++
	s.stabilityFactor = planStability(s.lastPlans, plans, s.stabilityFactor)
	cp := plans
	s.lastPlans = &cp
	s.planExpiry = now.Add(max(s.nextDue.Sub(now)+time.Hour, PlanValidity))
}

// planStability is the learning-phase backoff of Fig 11: the
// multiplicative factor doubles (capped at Max/Min) when at least three
// quarters of the hourly assignments are unchanged from the previous plan
// set; otherwise the cadence resets. A nil prev (first solve) leaves the
// factor untouched.
func planStability(prev *dag.HourlyPlans, plans dag.HourlyPlans, factor float64) float64 {
	if prev == nil {
		return factor
	}
	same, total := 0, 0
	for h := range plans {
		for n, r := range plans[h] {
			total++
			if prev[h][n] == r {
				same++
			}
		}
	}
	if total > 0 && float64(same)/float64(total) >= 0.75 {
		factor *= 2
		maxFactor := MaxCheckInterval.Hours() / MinCheckInterval.Hours()
		if factor > maxFactor {
			factor = maxFactor
		}
	} else {
		factor = 1
	}
	return factor
}

// scheduleInterval is the §5.2 cadence rule: the shortfall between the
// solve cost and the earning rate, smoothed by a sigmoid into
// [MinCheckInterval, MaxCheckInterval] so the cadence tracks the past
// period's invocation rate, stretched by the plan-stability backoff.
func scheduleInterval(tokens, cost, ratePerHour, stabilityFactor float64) time.Duration {
	var hoursNeeded float64
	switch {
	case tokens >= cost:
		hoursNeeded = 0
	case ratePerHour <= 0:
		hoursNeeded = MaxCheckInterval.Hours()
	default:
		hoursNeeded = (cost - tokens) / ratePerHour
	}
	minH := MinCheckInterval.Hours()
	maxH := MaxCheckInterval.Hours()
	mid := (minH + maxH) / 2
	s := 1 / (1 + math.Exp(-(hoursNeeded-mid)/(maxH/8)))
	h := minH + (maxH-minH)*s
	if stable := minH * stabilityFactor; stable > h {
		h = stable
	}
	if h > maxH {
		h = maxH
	}
	return time.Duration(h * float64(time.Hour))
}
