// stream.go implements the event-driven form of the §5.2 token bucket.
// Where Manager pulls a metrics window on a periodic Tick, a Stream is
// *pushed* incremental trace deltas as they arrive: tokens accrue on each
// delta, solve decisions fire when the scheduled check time passes under
// the advancing event timestamps, and the granularity downgrade, plan
// expiry, and cadence rules are the exact helpers Manager uses
// (TrafficTokens, SolveCost, scheduleInterval, planStability) — the §6
// semantics, but without a clock driving them. The control plane (internal/controlplane) runs one Stream per
// registered tenant; the Stream itself performs no solves and reads no
// clock, so it stays deterministic under any request interleaving that
// preserves a tenant's own event order.
package manager

import (
	"fmt"
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

// Stream is the event-driven token bucket for one workflow. All times are
// the caller's virtual (trace) time; the Stream never reads a clock.
// Methods must be called from one goroutine at a time (the control plane
// serializes each tenant on its shard worker).
type Stream struct {
	tokens float64

	// periodStart and periodEarned track the current accrual period —
	// everything earned since the last budget decision — so the cadence
	// rule sees the same tokens-per-hour rate the Tick-driven Manager
	// derives from its pulled window.
	periodStart  time.Time
	periodEarned float64

	nextDue    time.Time
	planExpiry time.Time
	hasPlan    bool

	lastPlans       *dag.HourlyPlans
	stabilityFactor float64

	solves     int
	solveSkips int
}

// NewStream builds a stream whose first check is due immediately (the
// learning phase runs on InitialTokens, as in Fig 6).
func NewStream(cfg Config, start time.Time) *Stream {
	return &Stream{
		tokens:          cfg.InitialTokens,
		periodStart:     start,
		nextDue:         start,
		stabilityFactor: 1,
	}
}

// Tokens reports the current carbon budget in grams.
func (s *Stream) Tokens() float64 { return s.tokens }

// Solves reports how many plan generations have been charged.
func (s *Stream) Solves() int { return s.solves }

// SolveSkips reports how many due checks found the budget insufficient.
func (s *Stream) SolveSkips() int { return s.solveSkips }

// NextDue reports when the next budget check becomes due.
func (s *Stream) NextDue() time.Time { return s.nextDue }

// PlanExpiry reports when the active plan set expires (zero before the
// first solve).
func (s *Stream) PlanExpiry() time.Time {
	if !s.hasPlan {
		return time.Time{}
	}
	return s.planExpiry
}

// Accrue converts one trace delta into tokens under the shared §5.2
// accrual rule and returns the amount earned. Intensities are the home
// region's and the greenest reachable region's at the delta's timestamp.
func (s *Stream) Accrue(invocations int, meanRuntimeSec, homeIntensity, minIntensity float64) float64 {
	earned := TrafficTokens(invocations, meanRuntimeSec, homeIntensity, minIntensity)
	s.tokens += earned
	s.periodEarned += earned
	return earned
}

// Due reports whether a budget check should run at now: immediately while
// no check has ever completed, then whenever the scheduled time passes.
func (s *Stream) Due(now time.Time) bool { return !now.Before(s.nextDue) }

// PlanExpired reports whether a previously activated plan set has lapsed
// at now — the stalled-feed case: with no deltas earning tokens, the plan
// runs out and traffic must route home until the budget recovers.
func (s *Stream) PlanExpired(now time.Time) bool {
	return s.hasPlan && now.After(s.planExpiry)
}

// Decide reports the granularity the current budget affords given the two
// solve costs — the granularity-adaptation rule of §5.2: a full hourly
// solve when tokens cover it, a downgraded single daily solve when they
// cover only that, otherwise nothing. Pass an infinite hourlyCost to pin
// a tenant to daily granularity.
func (s *Stream) Decide(hourlyCost, dailyCost float64) Granularity {
	switch {
	case s.tokens >= hourlyCost:
		return GranularityHourly
	case s.tokens >= dailyCost:
		return GranularityDaily
	}
	return GranularityNone
}

// NoteSolve debits a completed solve, updates the plan-stability backoff,
// and schedules the next due check with the shared cadence rule. The new
// plan set lives until that check plus one hour of slack (or PlanValidity
// if longer), mirroring the Tick-driven Manager's expiry wiring: the next
// check, not the clock, is what normally expires plans.
func (s *Stream) NoteSolve(now time.Time, cost float64, plans dag.HourlyPlans) {
	s.tokens -= cost
	s.solves++
	s.stabilityFactor = planStability(s.lastPlans, plans, s.stabilityFactor)
	cp := plans
	s.lastPlans = &cp

	interval := s.schedule(now, cost)
	// An hour of slack so the check, not the timestamp, expires plans.
	s.planExpiry = now.Add(max(interval+time.Hour, PlanValidity))
	s.hasPlan = true
}

// NoteSkip records a due check whose budget covered no solve: the current
// plan expires immediately (a due check expires the pre-determined
// deployment, §5.2) and the next check is scheduled from the shortfall.
func (s *Stream) NoteSkip(now time.Time, cost float64) {
	s.solveSkips++
	if s.hasPlan && s.planExpiry.After(now) {
		s.planExpiry = now
	}
	s.schedule(now, cost)
}

// schedule closes the current accrual period and computes the next due
// check from its earning rate, exactly as Manager.checkInterval does for
// the pulled window.
func (s *Stream) schedule(now time.Time, cost float64) time.Duration {
	periodHours := now.Sub(s.periodStart).Hours()
	if periodHours <= 0 {
		periodHours = MinCheckInterval.Hours()
	}
	rate := s.periodEarned / periodHours
	interval := scheduleInterval(s.tokens, cost, rate, s.stabilityFactor)
	s.nextDue = now.Add(interval)
	s.periodStart = now
	s.periodEarned = 0
	return interval
}
