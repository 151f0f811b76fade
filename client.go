package caribou

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/core"
	"caribou/internal/dag"
	"caribou/internal/executor"
	"caribou/internal/manager"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/trace"
	"caribou/internal/workloads"
)

// Priority is the developer's optimization objective.
type Priority int

// Optimization priorities (§8).
const (
	OptimizeCarbon Priority = iota
	OptimizeCost
	OptimizeLatency
)

// InputClass selects the request payload class for an invocation.
type InputClass string

// Input classes.
const (
	SmallInput InputClass = "small"
	LargeInput InputClass = "large"
)

// TransmissionScenario selects the transmission-carbon accounting model.
type TransmissionScenario int

// The paper's bracketing scenarios (§7.1): best case charges
// 0.001 kWh/GB for any transmission; worst case charges 0.005 kWh/GB
// inter-region and nothing intra-region.
const (
	BestCaseTransmission TransmissionScenario = iota
	WorstCaseTransmission
)

// ClientConfig configures the simulated environment a client manages.
type ClientConfig struct {
	// Seed makes the entire run reproducible. 0 means 1.
	Seed int64
	// Start and End bound the experiment window; defaults cover the
	// paper's evaluation week, 2023-10-15 through 2023-10-21.
	Start, End time.Time
	// Regions restricts the available catalogue; defaults to the four
	// evaluation regions (us-east-1, us-west-1, us-west-2,
	// ca-central-1).
	Regions []string
}

// Client owns one simulated multi-region cloud and the workflows deployed
// onto it.
type Client struct {
	env  *core.Env
	apps []*App
}

// DefaultEvaluationStart is the first instant of the paper's carbon-data
// window.
var DefaultEvaluationStart = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

// NewClient builds a client and its simulated environment.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Start.IsZero() {
		cfg.Start = DefaultEvaluationStart
	}
	if cfg.End.IsZero() {
		cfg.End = cfg.Start.Add(7 * 24 * time.Hour)
	}
	regions := region.EvaluationFour()
	if len(cfg.Regions) > 0 {
		regions = regions[:0]
		for _, r := range cfg.Regions {
			regions = append(regions, region.ID(r))
		}
	}
	env, err := core.NewEnv(core.EnvConfig{
		Seed: cfg.Seed, Start: cfg.Start, End: cfg.End, Regions: regions,
	})
	if err != nil {
		return nil, err
	}
	return &Client{env: env}, nil
}

// Now reports the current virtual time.
func (c *Client) Now() time.Time { return c.env.Sched.Now() }

// End reports the end of the experiment window.
func (c *Client) End() time.Time { return c.env.End }

// Regions lists the available region IDs.
func (c *Client) Regions() []string {
	var out []string
	for _, id := range c.env.Cat.IDs() {
		out = append(out, string(id))
	}
	return out
}

// Run drives the simulation to the end of the window, executing every
// scheduled invocation and Deployment Manager check.
func (c *Client) Run() { c.env.Run() }

// RunUntil drives the simulation to t.
func (c *Client) RunUntil(t time.Time) { c.env.RunUntil(t) }

// DeploymentConfig is the deployment manifest (§8 config.yml): home
// region, optimization priority, tolerances, workflow-level compliance,
// and whether the adaptive Deployment Manager controls re-deployment.
type DeploymentConfig struct {
	HomeRegion string
	Priority   Priority
	// LatencyTolerancePct bounds the p95 end-to-end service time at
	// home-p95 × (1 + pct/100). Zero means unconstrained; use a small
	// positive value (e.g. 0.01) for a near-strict bound.
	LatencyTolerancePct float64
	// CostTolerancePct bounds p95 cost per invocation analogously; zero
	// means unconstrained.
	CostTolerancePct float64
	// AllowedRegions / DisallowedRegions / AllowedCountries are
	// workflow-level compliance constraints; function-level
	// configurations supersede them.
	AllowedRegions    []string
	DisallowedRegions []string
	AllowedCountries  []string
	// Adaptive enables the token-bucket Deployment Manager (§5.2); when
	// false the application stays at home until Solve/Apply are called.
	Adaptive bool
	// PlanningScenario selects the transmission-carbon model the solver
	// optimizes under (default best case).
	PlanningScenario TransmissionScenario
}

// App is one deployed workflow.
type App struct {
	client *Client
	inner  *core.App
	wl     *workloads.Workload
	// lastPlans holds the most recent manually solved plan set.
	lastPlans *dag.HourlyPlans
}

// Deploy compiles the workflow, deploys it to its home region, and wires
// the control loop. With cfg.Adaptive set, Deployment Manager checks run
// hourly for the rest of the window.
func (c *Client) Deploy(w *Workflow, cfg DeploymentConfig) (*App, error) {
	wl, err := w.compile()
	if err != nil {
		return nil, err
	}
	if cfg.HomeRegion == "" {
		cfg.HomeRegion = string(region.USEast1)
	}
	tol := solver.Tolerances{}
	if cfg.LatencyTolerancePct > 0 {
		tol.Latency = solver.Tol(cfg.LatencyTolerancePct)
	}
	if cfg.CostTolerancePct > 0 {
		tol.Cost = solver.Tol(cfg.CostTolerancePct)
	}
	cons := region.Constraint{AllowedCountries: cfg.AllowedCountries}
	for _, r := range cfg.AllowedRegions {
		cons.AllowedRegions = append(cons.AllowedRegions, region.ID(r))
	}
	for _, r := range cfg.DisallowedRegions {
		cons.DisallowedRegions = append(cons.DisallowedRegions, region.ID(r))
	}
	tx := carbon.BestCase()
	if cfg.PlanningScenario == WorstCaseTransmission {
		tx = carbon.WorstCase()
	}
	app, err := c.env.NewApp(core.AppConfig{
		Workload:   wl,
		Home:       region.ID(cfg.HomeRegion),
		Mode:       executor.ModeCaribou,
		Objective:  solver.Objective{Priority: solver.Priority(cfg.Priority), Tolerances: tol},
		Constraint: cons,
		Tx:         tx,
		Adaptive:   cfg.Adaptive,
	})
	if err != nil {
		return nil, err
	}
	a := &App{client: c, inner: app, wl: wl}
	if cfg.Adaptive {
		app.ScheduleManagerTicks(time.Hour)
	}
	c.apps = append(c.apps, a)
	return a, nil
}

// Invoke schedules a single invocation at the current virtual time.
func (a *App) Invoke(class InputClass) error {
	_, err := a.inner.Engine.Invoke(workloads.InputClass(class))
	return err
}

// InvokeAt schedules an invocation at a future virtual time.
func (a *App) InvokeAt(t time.Time, class InputClass) {
	a.inner.Engine.InvokeAt(t, workloads.InputClass(class), func(error) { a.inner.InvokeErrors++ })
}

// InvokeEvery schedules n invocations spaced by gap from the current
// virtual time.
func (a *App) InvokeEvery(gap time.Duration, n int, class InputClass) {
	a.inner.ScheduleUniform(a.client.Now(), n, gap, workloads.InputClass(class))
}

// InvokeTrace schedules invocations following the synthetic Azure-style
// trace profile between the current time and the window end.
func (a *App) InvokeTrace(dailyInvocations float64) error {
	p := trace.AzureP5()
	if dailyInvocations > 0 {
		p.DailyInvocations = dailyInvocations
	}
	events, err := trace.Generate(p, a.client.Now(), a.client.End(), a.client.env.Seed)
	if err != nil {
		return err
	}
	a.inner.ScheduleTrace(events)
	return nil
}

// Solve computes 24 hourly deployment plans for the day starting at the
// current virtual time and applies them (manual alternative to Adaptive).
func (a *App) Solve() error {
	plans, _, err := manager.Solve(a.inner.Metrics, a.inner.Solver, a.client.Now(), manager.GranularityHourly)
	if err != nil {
		return err
	}
	if _, err := a.inner.DeployPlanRegions(plans); err != nil {
		return err
	}
	a.inner.SetStaticPlans(plans)
	a.lastPlans = &plans
	return nil
}

// DOT renders the workflow DAG in Graphviz format. When hourly plans have
// been solved, stages are clustered by the region the given hour's plan
// assigns them to; pass a negative hour (or call before Solve) for an
// unclustered graph.
func (a *App) DOT(hour int) string {
	if a.lastPlans != nil && hour >= 0 && hour < 24 {
		return a.wl.DAG.ToDOT(a.lastPlans[hour])
	}
	return a.wl.DAG.ToDOT(nil)
}

// Plans renders the hourly deployment plans produced by the most recent
// Solve call, one string per hour of day ("stage→region, ..."). It
// returns zero values before any solve.
func (a *App) Plans() [24]string {
	var out [24]string
	if a.lastPlans == nil {
		return out
	}
	for h, p := range a.lastPlans {
		out[h] = p.String()
	}
	return out
}

// Report summarizes all completed invocations under the chosen
// transmission-carbon scenario.
func (a *App) Report(scenario TransmissionScenario) (Report, error) {
	tx := carbon.BestCase()
	if scenario == WorstCaseTransmission {
		tx = carbon.WorstCase()
	}
	if len(a.inner.Records) == 0 {
		return Report{}, fmt.Errorf("caribou: no completed invocations for %s", a.wl.Name)
	}
	sum, err := a.client.env.Summarize(a.inner.Records, tx)
	if err != nil {
		return Report{}, err
	}
	if a.inner.Manager != nil {
		sum.AddOverhead(a.inner.Manager.OverheadGrams)
	}
	r := Report{
		Workflow:             a.wl.Name,
		Invocations:          sum.Invocations,
		Succeeded:            sum.Succeeded,
		MeanCarbonGrams:      sum.MeanCarbonG,
		ExecCarbonGrams:      sum.MeanExecCarbonG,
		TxCarbonGrams:        sum.MeanTxCarbonG,
		OverheadCarbonGrams:  sum.OverheadCarbonG,
		MeanCostUSD:          sum.MeanCostUSD,
		MeanServiceSeconds:   sum.MeanServiceSec,
		P95ServiceSeconds:    sum.P95ServiceSec,
		RegionsUsed:          a.regionsUsed(),
		DeploymentPlanSolves: a.solves(),
	}
	return r, nil
}

func (a *App) regionsUsed() []string {
	set := map[string]bool{}
	for _, rec := range a.inner.Records {
		for _, r := range rec.RegionsUsed() {
			set[string(r)] = true
		}
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

func (a *App) solves() int {
	if a.inner.Manager == nil {
		return 0
	}
	return a.inner.Manager.Solves()
}

// Report summarizes an application's run.
type Report struct {
	Workflow             string
	Invocations          int
	Succeeded            int
	MeanCarbonGrams      float64 // per invocation, incl. amortized overhead
	ExecCarbonGrams      float64 // execution component, per invocation
	TxCarbonGrams        float64 // transmission component, per invocation
	OverheadCarbonGrams  float64 // total framework overhead
	MeanCostUSD          float64
	MeanServiceSeconds   float64
	P95ServiceSeconds    float64
	RegionsUsed          []string
	DeploymentPlanSolves int
}

// String renders the report for terminals.
func (r Report) String() string {
	return fmt.Sprintf(
		"%s: %d/%d invocations ok | carbon %.4f g/inv (exec %.4f, tx %.4f, overhead total %.2f g) | cost $%.6f/inv | service mean %.2fs p95 %.2fs | regions %v | solves %d",
		r.Workflow, r.Succeeded, r.Invocations,
		r.MeanCarbonGrams, r.ExecCarbonGrams, r.TxCarbonGrams, r.OverheadCarbonGrams,
		r.MeanCostUSD, r.MeanServiceSeconds, r.P95ServiceSeconds, r.RegionsUsed, r.DeploymentPlanSolves)
}

// WriteRecords streams every completed invocation record as JSON Lines —
// one InvocationRecord per line — for offline analysis or external
// plotting. The record schema is the platform's raw event log: per-stage
// executions, per-edge transfers, and billable service counts.
func (a *App) WriteRecords(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range a.inner.Records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("caribou: encode record %d: %w", r.ID, err)
		}
	}
	return nil
}
