package manager

import (
	"math"
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/region"
)

// samplePlans builds a stable all-hours plan set for stability tests.
func samplePlans(r region.ID) dag.HourlyPlans {
	var plans dag.HourlyPlans
	for h := range plans {
		plans[h] = dag.Plan{"a": r, "b": r, "c": r}
	}
	return plans
}

func TestStreamAccrualFromDeltas(t *testing.T) {
	s := NewStream(Config{}, t0)
	if s.Tokens() != 0 {
		t.Fatalf("tokens = %v before any delta", s.Tokens())
	}

	// Three incremental deltas: the balance is the running sum of the
	// shared §5.2 accrual rule applied per delta.
	var want float64
	deltas := []struct {
		invocations int
		runtime     float64
		home, min   float64
	}{
		{50, 1.2, 450, 120},
		{75, 0.9, 380, 140},
		{10, 2.5, 500, 90},
	}
	for _, d := range deltas {
		earned := s.Accrue(d.invocations, d.runtime, d.home, d.min)
		exp := TrafficTokens(d.invocations, d.runtime, d.home, d.min)
		if earned != exp {
			t.Errorf("Accrue = %v, want TrafficTokens = %v", earned, exp)
		}
		if earned <= 0 {
			t.Errorf("delta %+v earned nothing", d)
		}
		want += exp
	}
	if got := s.Tokens(); math.Abs(got-want) > 1e-12 {
		t.Errorf("tokens = %v, want accumulated %v", got, want)
	}

	// Zero invocations or an inverted intensity differential earn nothing.
	if got := s.Accrue(0, 1, 500, 100); got != 0 {
		t.Errorf("zero-invocation delta earned %v", got)
	}
	if got := s.Accrue(100, 1, 100, 500); got != 0 {
		t.Errorf("negative differential earned %v", got)
	}
}

func TestStreamAccrualMatchesManagerWindow(t *testing.T) {
	// Event-driven accrual over N single-invocation deltas must equal the
	// Tick-driven Manager's one pulled window of N invocations.
	const n, runtime, home, min = 120, 1.5, 430.0, 110.0
	s := NewStream(Config{}, t0)
	for i := 0; i < n; i++ {
		s.Accrue(1, runtime, home, min)
	}
	want := TrafficTokens(n, runtime, home, min)
	if got := s.Tokens(); math.Abs(got-want) > 1e-9 {
		t.Errorf("streamed accrual %v != windowed accrual %v", got, want)
	}
}

func TestStreamGranularityDowngradeMidStream(t *testing.T) {
	s := NewStream(Config{}, t0)
	hourly := SolveCost(400, 5, 4, true)
	daily := SolveCost(400, 5, 4, false)

	// Ample budget → full hourly solve.
	s.tokens = 1.5 * hourly
	if g := s.Decide(hourly, daily); g != GranularityHourly {
		t.Fatalf("granularity = %v with ample budget, want hourly", g)
	}
	now := t0.Add(6 * time.Hour)
	s.NoteSolve(now, hourly, samplePlans(region.USEast1))
	if s.Solves() != 1 {
		t.Fatalf("solves = %d", s.Solves())
	}

	// The solve debit tightened the budget mid-stream: the remaining
	// tokens cover only a single daily plan.
	if s.Tokens() >= hourly {
		t.Fatalf("tokens %v not tightened below hourly cost %v", s.Tokens(), hourly)
	}
	if g := s.Decide(hourly, daily); g != GranularityDaily {
		t.Errorf("granularity = %v under tight budget, want daily downgrade", g)
	}

	// Drained entirely → no solve at all.
	s.tokens = daily / 2
	if g := s.Decide(hourly, daily); g != GranularityNone {
		t.Errorf("granularity = %v with drained budget, want none", g)
	}

	// A daily-pinned tenant never upgrades, however large the budget.
	s.tokens = 100 * hourly
	if g := s.Decide(math.Inf(1), daily); g != GranularityDaily {
		t.Errorf("granularity = %v with infinite hourly cost, want daily", g)
	}
}

func TestStreamPlanExpiryUnderStalledFeed(t *testing.T) {
	hourly := SolveCost(400, 5, 4, true)
	daily := SolveCost(400, 5, 4, false)
	s := NewStream(Config{InitialTokens: daily * 1.5}, t0)
	if !s.Due(t0) {
		t.Fatal("first check not due at start")
	}
	if g := s.Check(t0, hourly, daily); g != GranularityDaily {
		t.Fatalf("granularity = %v, want daily", g)
	}
	s.NoteSolve(t0, daily, samplePlans(region.USEast1))

	expiry := s.PlanExpiry()
	if expiry.IsZero() {
		t.Fatal("no expiry recorded after solve")
	}
	if !t0.Before(expiry) {
		t.Errorf("plan solved at %v already lapsed at %v", t0, expiry)
	}

	// The delta feed stalls: only zero-invocation heartbeats advance the
	// stream's virtual time, earning nothing. Once that time passes the
	// expiry, the plan lapses and the budget affords no replacement —
	// traffic routes home until tokens recover.
	heartbeat := expiry.Add(time.Minute)
	s.Accrue(0, 0, 0, 0)
	if heartbeat.Before(s.PlanExpiry()) {
		t.Error("stalled feed did not expire the plan")
	}
	if s.Due(heartbeat) {
		if g := s.Check(heartbeat, hourly, daily); g != GranularityNone {
			t.Errorf("granularity = %v after stall, want none", g)
		}
	}
	if s.Solves() != 1 {
		t.Errorf("solves = %d; stalled feed must not trigger a new solve", s.Solves())
	}
}

func TestStreamNoSolveWithoutTokens(t *testing.T) {
	s := NewStream(Config{}, t0)
	hourly := SolveCost(400, 5, 4, true)
	daily := SolveCost(400, 5, 4, false)

	now := s.NextDue()
	if g := s.Check(now, hourly, daily); g != GranularityNone {
		t.Fatalf("granularity = %v with zero tokens, want none", g)
	}
	if s.Solves() != 0 {
		t.Errorf("solves = %d after tokenless check", s.Solves())
	}
	// The skip schedules a future check: not due again immediately.
	if s.Due(now.Add(time.Minute)) {
		t.Error("check due again immediately after a skip")
	}
	if !s.NextDue().After(now) {
		t.Error("skip did not schedule a next check")
	}
}

func TestStreamSkipExpiresActivePlan(t *testing.T) {
	hourly := SolveCost(400, 5, 4, true)
	daily := SolveCost(400, 5, 4, false)
	s := NewStream(Config{InitialTokens: daily}, t0)
	s.Check(t0, hourly, daily)
	s.NoteSolve(t0, daily, samplePlans(region.USEast1))

	// A due check with an empty budget expires the pre-determined
	// deployment immediately (§5.2), mirroring Manager.Tick's dep.Expire.
	now := t0.Add(MinCheckInterval)
	if !now.Before(s.PlanExpiry()) {
		t.Fatal("plan already expired before the check")
	}
	if g := s.Check(now, hourly, daily); g != GranularityNone {
		t.Fatalf("granularity = %v with a spent budget, want none", g)
	}
	if !s.PlanExpiry().Equal(now) {
		t.Errorf("tokenless check at %v left the plan live until %v", now, s.PlanExpiry())
	}
}

func TestStreamScheduleWithinBounds(t *testing.T) {
	daily := SolveCost(400, 5, 4, false)

	cases := []struct {
		name   string
		tokens float64
		earned float64
	}{
		{"rich", daily * 10, daily},
		{"poor", 0, 0},
		{"earning", daily / 4, daily / 2},
	}
	for _, tc := range cases {
		s := NewStream(Config{}, t0)
		s.tokens = tc.tokens
		s.periodEarned = tc.earned
		now := t0.Add(3 * time.Hour)
		s.Check(now, math.Inf(1), daily)
		gap := s.NextDue().Sub(now)
		if gap < MinCheckInterval || gap > MaxCheckInterval {
			t.Errorf("%s: next-due gap %v outside [%v, %v]", tc.name, gap, MinCheckInterval, MaxCheckInterval)
		}
	}
}

func TestStreamStabilityBackoffGrows(t *testing.T) {
	daily := SolveCost(400, 5, 4, false)
	s := NewStream(Config{InitialTokens: 2 * daily}, t0)
	plans := samplePlans(region.USEast1)

	// solveAt runs one due check and a daily solve producing p, returning
	// the gap the check scheduled. The budget is kept comfortable so the
	// cadence is driven by the stability backoff, not by a shortfall.
	now := t0
	solveAt := func(p dag.HourlyPlans) time.Duration {
		s.tokens = 2 * daily
		if g := s.Check(now, math.Inf(1), daily); g != GranularityDaily {
			t.Fatalf("granularity = %v, want daily", g)
		}
		gap := s.NextDue().Sub(now)
		s.NoteSolve(now, daily, p)
		now = s.NextDue()
		return gap
	}

	// Identical consecutive plan sets back the cadence off multiplicatively,
	// exactly as Fig 11's learning phase; a check schedules with the
	// backoff the solves before it left.
	var gaps []time.Duration
	for i := 0; i < 3; i++ {
		gaps = append(gaps, solveAt(plans))
	}
	if gaps[2] <= gaps[0] {
		t.Errorf("gaps did not grow under stable plans: %v", gaps)
	}

	// A shifted plan set resets the cadence from the next check on.
	solveAt(samplePlans(region.USWest2))
	if reset := solveAt(plans); reset >= gaps[2] {
		t.Errorf("plan shift did not reset the backoff: %v !< %v", reset, gaps[2])
	}
}

func TestStreamSolveCostMatchesManager(t *testing.T) {
	// The Stream prices solves through the same SolveCost the
	// Manager delegates to — pin the hourly/daily ratio it guarantees.
	hourly := SolveCost(400, 5, 4, true)
	daily := SolveCost(400, 5, 4, false)
	if hourly <= daily {
		t.Errorf("hourly %v should exceed daily %v", hourly, daily)
	}
	if r := hourly / daily; r < 23.9 || r > 24.1 {
		t.Errorf("hourly/daily = %v, want 24", r)
	}
}

func TestStreamFirstCheckDueImmediately(t *testing.T) {
	s := NewStream(Config{InitialTokens: 1}, t0)
	if !s.Due(t0) {
		t.Error("stream not due at its start time")
	}
	if t0.Before(s.PlanExpiry()) {
		t.Error("a plan is live before any solve")
	}
	if !s.PlanExpiry().IsZero() {
		t.Error("non-zero expiry before any solve")
	}
}

// TestEmptyBucketWaitsMinInterval pins the first check of a stream granted
// no tokens: it has no window to price yet, so it waits MinCheckInterval
// like any check scheduled with nothing earned.
func TestEmptyBucketWaitsMinInterval(t *testing.T) {
	s := NewStream(Config{}, t0)
	if s.Due(t0) || s.Due(t0.Add(MinCheckInterval-time.Nanosecond)) {
		t.Errorf("empty bucket due before %v", t0.Add(MinCheckInterval))
	}
	if !s.Due(t0.Add(MinCheckInterval)) || !s.NextDue().Equal(t0.Add(MinCheckInterval)) {
		t.Errorf("next due = %v, want %v", s.NextDue(), t0.Add(MinCheckInterval))
	}
}

// TestDailyPinnedSchedulesAgainstDailyCost pins what a daily-pinned check
// schedules against: its infinite hourly cost is never affordable, so a
// schedule priced at it would always wait MaxCheckInterval.
func TestDailyPinnedSchedulesAgainstDailyCost(t *testing.T) {
	daily := SolveCost(400, 5, 4, false)
	s := NewStream(Config{InitialTokens: 2 * daily}, t0)
	s.Accrue(100, 1, 450, 120)
	now := t0.Add(8 * time.Hour)
	rate := s.periodEarned / 8
	want := scheduleInterval(s.tokens, daily, rate, 1)
	if g := s.Check(now, math.Inf(1), daily); g != GranularityDaily {
		t.Fatalf("granularity = %v, want daily", g)
	}
	if gap := s.NextDue().Sub(now); gap != want || gap >= MaxCheckInterval {
		t.Errorf("next-check gap = %v, want %v (priced at the daily cost)", gap, want)
	}
	s.NoteSolve(now, daily, samplePlans(region.USEast1))
	if got, want := s.PlanExpiry(), now.Add(max(want+time.Hour, PlanValidity)); !got.Equal(want) {
		t.Errorf("plan expiry = %v, want %v", got, want)
	}
}

func TestGranularityString(t *testing.T) {
	cases := map[Granularity]string{
		GranularityNone:   "none",
		GranularityDaily:  "daily",
		GranularityHourly: "hourly",
	}
	for g, want := range cases {
		if got := g.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(g), got, want)
		}
	}
}
