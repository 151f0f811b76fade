package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"caribou/internal/controlplane"
	"caribou/internal/simclock"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// serve-read and serve-ingest: the multi-tenant control plane behind a
// real 127.0.0.1 listener in this process, driven open-loop by at most
// nproc senders. serve-read is the read path (plan GETs, the solver
// idle); serve-ingest is the solver under the control plane (trace deltas
// that make budget checks fall due, so some carry an inline solve and
// their shard-mates wait behind it).
//
// Both run a four-rate ladder. The rates are frozen constants, calibrated
// once against the 2-client closed-loop capacity of the commit that
// introduced the benchmark (R2 ≈ 1/3, R3 ≈ 0.8x, R4 ≈ 1.6x capacity); the
// traced run reports that capacity as
// controlplane.closed_loop_ops_per_s, and when goodput at R4 comes
// within 5 % of R4 itself the ladder no longer saturates the server and
// must be recalibrated in a benchmark-only change.

// Request kinds.
const (
	kindGet uint8 = iota
	kindGetAll
	kindDelta
	kindRegister
	numKinds
)

var kindNames = [numKinds]string{"plan GET", "plan GET ?hours=all", "trace delta", "register"}

// ladderShares splits the timed phase over the four steps. The reference
// step R2 is the source of the latency metrics and the saturating step R4
// of ops_per_s, so those two get most of it.
var ladderShares = [4]float64{0.15, 0.35, 0.15, 0.35}

// serveSpec is what distinguishes the two serve workloads.
type serveSpec struct {
	tenants int
	// initialTokens of every tenant: 0 takes the server's default grant
	// (one daily solve at registration, then quiet); a large grant buys an
	// hourly solve at registration and at every due check.
	initialTokens float64
	rates         [4]float64 // total requests/s of the mix at R1..R4
	// kindOf is the type of the i-th request. Types and tenants follow a
	// fixed pattern (see tenantOf), so the work in a schedule — how many
	// deltas, how many of them fall due for a solve — is the same for
	// every seed; the seed draws the arrival times and seeds the server.
	kindOf func(i int) uint8
	// primary is the op the latency metrics and the limit are about.
	primary uint8
	limitMs float64
	// deltaStep is how far each delta advances its tenant's virtual time;
	// deltaInvocations how many arrivals it reports.
	deltaStep        time.Duration
	deltaInvocations int
	// deltasSolve says whether this workload's deltas may carry a solve.
	deltasSolve bool
}

// horizonDeltas keeps every tenant inside the server's 14-day carbon
// horizon.
func (s serveSpec) horizonDeltas() int {
	return int(13 * 24 * time.Hour / s.deltaStep)
}

func serveRead() workload {
	spec := serveSpec{
		tenants: 600,
		rates:   [4]float64{2000, 10000, 24000, 48000},
		kindOf: func(i int) uint8 {
			switch {
			case i%50 == 25:
				return kindDelta
			case i%10 == 0:
				return kindGetAll
			}
			return kindGet
		},
		primary:          kindGet,
		limitMs:          5,
		deltaStep:        time.Minute,
		deltaInvocations: 5,
	}
	return workload{
		name: "serve-read",
		// Two spans per request, a quarter of a million requests.
		traceSpans: 1 << 20,
		why:        "open loop, 2 connections, ladder 2k/10k/24k/48k req/s, 600 tenants: 98% plan GETs (1 in 10 ?hours=all), 2% non-solving deltas; controlplane read path + encode + net/http, solver idle",
		setupReps:  3,
		openLoop:   true,
		setup:      spec.setup,
	}
}

func serveIngest() workload {
	spec := serveSpec{
		tenants:       240,
		initialTokens: 1e9,
		rates:         [4]float64{25, 80, 190, 380},
		kindOf: func(i int) uint8 {
			switch {
			case i%20 == 10:
				return kindRegister
			case i%10 == 5:
				return kindGet
			}
			return kindDelta
		},
		primary:          kindDelta,
		limitMs:          100,
		deltaStep:        3 * time.Hour,
		deltaInvocations: 200,
		deltasSolve:      true,
	}
	return workload{
		name:      "serve-ingest",
		why:       "open loop, 2 connections, ladder 25/80/190/380 req/s, 240 tenants: 85% trace deltas (+3h; some carry an inline 24-plan solve), 5% registrations, 10% plan GETs; shard queue wait behind other solves",
		setupReps: 3,
		openLoop:  true,
		setup:     spec.setup,
	}
}

// serveInstance is a running server with its registered population.
type serveInstance struct {
	spec    serveSpec
	seed    int64
	rec     *telemetry.Recorder
	srv     *controlplane.Server
	lb      *loopback
	senders []*httpSender

	ids        []string
	planURL    []string
	planAllURL []string
	traceURL   []string
	nextDelta  []int // per tenant: how many deltas the schedule has issued
	registered int   // registrations the schedule has issued after set-up
	issued     int   // requests the schedules have issued
	byKind     [numKinds]int
	steps      int // schedules drawn so far; labels the next one's stream

	registerMs   []float64 // set-up registration latencies, 2 closed-loop clients
	kbPerTenant  float64   // live heap the registered population holds, per tenant
	savedPct     float64
	mu           sync.Mutex
	failureNotes []string
}

// workflowNames are the five Table-1 workflows the tenants cycle through.
var workflowNames = func() []string {
	var names []string
	for _, wl := range workloads.All() {
		names = append(names, wl.Name)
	}
	return names
}()

func tenantWorkflow(i int) string { return workflowNames[i%len(workflowNames)] }

func (spec serveSpec) setup(c *ctx, sp *telemetry.Span) (instance, error) {
	in := &serveInstance{spec: spec, seed: c.seed, rec: c.rec}
	var err error
	err = inSpan(sp, "controlplane.New", func() (err error) {
		in.srv, err = controlplane.New(controlplane.Config{Shards: runtime.NumCPU(), Seed: c.seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	if in.lb, err = serveLoopback(in.srv); err != nil {
		in.srv.Close()
		return nil, err
	}
	in.senders = newHTTPSenders(runtime.NumCPU())
	if err := in.populate(sp); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// populate registers the tenant population over HTTP from the senders,
// then reads every tenant's first plan to establish carbon_saved_pct.
func (in *serveInstance) populate(sp *telemetry.Span) error {
	n := in.spec.tenants
	in.nextDelta = make([]int, n)
	regs := make([]arrival, n)
	for i := range regs {
		in.addTenant(fmt.Sprintf("t%d", i))
		regs[i] = arrival{kind: kindRegister, tenant: i}
	}
	// Only the traced run pays for the two forced collections that make
	// the per-tenant memory figure exact; set-up time is an untraced
	// metric.
	var heap0 float64
	if in.rec != nil {
		heap0 = liveHeapKB()
	}
	reg := sp.StartChild("controlplane.register_population")
	samples, _ := runStep(len(in.senders), regs, 0, in.do)
	reg.End()
	if in.rec != nil {
		in.kbPerTenant = (liveHeapKB() - heap0) / float64(n)
	}
	for _, s := range samples {
		if !s.ok {
			return fmt.Errorf("registering %d tenants: %s", n, in.firstFailure())
		}
		in.registerMs = append(in.registerMs, float64(s.done-s.sent)/float64(time.Millisecond))
	}
	return inSpan(sp, "controlplane.first_plans", in.readFirstPlans)
}

func (in *serveInstance) addTenant(id string) {
	in.ids = append(in.ids, id)
	base := in.lb.base + "/v1/workflows/" + id
	in.planURL = append(in.planURL, base+"/plan")
	in.planAllURL = append(in.planAllURL, base+"/plan?hours=all")
	in.traceURL = append(in.traceURL, base+"/trace")
}

// readFirstPlans registers one home-only tenant per workflow — its plan
// can only be the home deployment, so its carbon is the baseline — and
// compares every tenant's first plan against its workflow's baseline.
func (in *serveInstance) readFirstPlans() error {
	s := in.senders[0]
	base := map[string]float64{}
	for _, name := range workflowNames {
		id := "home-" + name
		body := fmt.Sprintf(`{"id":%q,"workload":%q,"regions":["aws:us-east-1"],"initial_tokens":%g}`, id, name, in.spec.initialTokens)
		if status, resp, err := s.do("POST", in.lb.base+"/v1/workflows", []byte(body)); err != nil || status != http.StatusCreated {
			return fmt.Errorf("register %s: status %d err %v: %s", id, status, err, resp)
		}
		p, err := in.getPlan(s, in.lb.base+"/v1/workflows/"+id+"/plan", id, false)
		if err != nil {
			return err
		}
		base[name] = p.CarbonMean
	}
	var sum float64
	for i, id := range in.ids {
		p, err := in.getPlan(s, in.planURL[i], id, false)
		if err != nil {
			return err
		}
		sum += p.CarbonMean / base[tenantWorkflow(i)]
	}
	in.savedPct = 100 * (1 - sum/float64(len(in.ids)))
	return nil
}

// Response bodies, reduced to what is validated.
type planBody struct {
	ID          string          `json:"id"`
	Version     int             `json:"version"`
	Assignments json.RawMessage `json:"assignments"`
	Hours       json.RawMessage `json:"hours"`
	CarbonMean  float64         `json:"carbon_mean_g"`
}

type traceBody struct {
	ID          string `json:"id"`
	Solved      bool   `json:"solved"`
	PlanVersion int    `json:"plan_version"`
	NextCheck   string `json:"next_check"`
}

type registerBody struct {
	ID          string `json:"id"`
	PlanVersion int    `json:"plan_version"`
}

func (in *serveInstance) getPlan(s *httpSender, url, id string, allHours bool) (planBody, error) {
	var p planBody
	status, body, err := s.do("GET", url, nil)
	if err != nil {
		return p, err
	}
	if status != http.StatusOK {
		return p, fmt.Errorf("GET %s: status %d: %s", url, status, body)
	}
	if err := json.Unmarshal(body, &p); err != nil {
		return p, fmt.Errorf("GET %s: body: %w", url, err)
	}
	if p.ID != id || p.Version < 1 || len(p.Assignments) < 3 || p.CarbonMean <= 0 || allHours != (len(p.Hours) > 2) {
		return p, fmt.Errorf("GET %s: malformed plan body: %s", url, body)
	}
	return p, nil
}

func (in *serveInstance) deltaBody(a arrival) []byte {
	at := controlplane.DefaultStart.Add(time.Duration(a.n+1) * in.spec.deltaStep)
	b := make([]byte, 0, 64)
	b = append(b, `{"at":"`...)
	b = at.AppendFormat(b, time.RFC3339)
	b = append(b, `","invocations":`...)
	b = strconv.AppendInt(b, int64(in.spec.deltaInvocations), 10)
	return append(b, '}')
}

func (in *serveInstance) registerRequest(a arrival) (id string, body []byte) {
	id, workflow := in.ids[a.tenant], tenantWorkflow(a.tenant)
	if a.n > 0 { // a registration arriving during the run: a tenant of its own
		id, workflow = fmt.Sprintf("n%d", a.n), tenantWorkflow(a.n)
	}
	return id, []byte(fmt.Sprintf(`{"id":%q,"workload":%q,"initial_tokens":%g}`, id, workflow, in.spec.initialTokens))
}

// do sends one arrival and validates status and body. flag reports a
// delta that carried a solve.
func (in *serveInstance) do(sender int, a arrival) (ok, flag bool) {
	s := in.senders[sender]
	root := in.rec.StartSpan("op") // the child span's name says which request it was
	defer root.End()
	var err error
	switch a.kind {
	case kindGet, kindGetAll:
		url := in.planURL[a.tenant]
		if a.kind == kindGetAll {
			url = in.planAllURL[a.tenant]
		}
		err = inSpan(root, "controlplane.GET plan", func() error {
			_, err := in.getPlan(s, url, in.ids[a.tenant], a.kind == kindGetAll)
			return err
		})
	case kindDelta:
		var tb traceBody
		err = inSpan(root, "controlplane.POST trace", func() error {
			status, body, err := s.do("POST", in.traceURL[a.tenant], in.deltaBody(a))
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("POST trace %s: status %d: %s", in.ids[a.tenant], status, body)
			}
			if err := json.Unmarshal(body, &tb); err != nil {
				return fmt.Errorf("POST trace %s: body: %w", in.ids[a.tenant], err)
			}
			if tb.ID != in.ids[a.tenant] || tb.PlanVersion < 1 || tb.NextCheck == "" {
				return fmt.Errorf("POST trace %s: malformed body: %s", in.ids[a.tenant], body)
			}
			if tb.Solved && !in.spec.deltasSolve {
				return fmt.Errorf("POST trace %s: a delta of the non-solving mix carried a solve", in.ids[a.tenant])
			}
			return nil
		})
		flag = tb.Solved
	case kindRegister:
		id, reqBody := in.registerRequest(a)
		err = inSpan(root, "controlplane.POST workflows", func() error {
			status, body, err := s.do("POST", in.lb.base+"/v1/workflows", reqBody)
			if err != nil {
				return err
			}
			if status != http.StatusCreated {
				return fmt.Errorf("register %s: status %d: %s", id, status, body)
			}
			var rb registerBody
			if err := json.Unmarshal(body, &rb); err != nil {
				return fmt.Errorf("register %s: body: %w", id, err)
			}
			if rb.ID != id || rb.PlanVersion < 1 {
				return fmt.Errorf("register %s: malformed body: %s", id, body)
			}
			return nil
		})
	}
	if err != nil {
		in.mu.Lock()
		if len(in.failureNotes) < 5 {
			in.failureNotes = append(in.failureNotes, err.Error())
		}
		in.mu.Unlock()
		return false, flag
	}
	return true, flag
}

func (in *serveInstance) firstFailure() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.failureNotes) == 0 {
		return "unknown failure"
	}
	return in.failureNotes[0]
}

// tenantOf spreads the k-th request of a type over n tenants with a
// fixed integer mixer (splitmix64's finalizer): uniform and as uneven
// from tenant to tenant as a random draw — tenants reach their budget
// checks at different times instead of in lockstep — yet the same for
// every seed.
func tenantOf(k, n int) int {
	x := uint64(k) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int((x ^ (x >> 31)) % uint64(n))
}

// schedule draws the next step's arrival times and labels them with the
// fixed request pattern. A delta takes its tenant's next virtual
// timestamp, moving on to the next tenant with room when one has used up
// the carbon horizon.
func (in *serveInstance) schedule(rate float64, d time.Duration) []arrival {
	rng := simclock.DeriveRand(in.seed, fmt.Sprintf("benchmark/serve/schedule/%d", in.steps))
	in.steps++
	n := in.spec.tenants
	return poissonSchedule(rng, rate, d, func() arrival {
		// Each request type spreads over the population on its own, so
		// every tenant sees its share of every type.
		kind := in.spec.kindOf(in.issued)
		a := arrival{kind: kind, tenant: tenantOf(in.byKind[kind], n)}
		in.issued++
		in.byKind[kind]++
		switch a.kind {
		case kindDelta:
			for in.nextDelta[a.tenant] >= in.spec.horizonDeltas() {
				a.tenant = (a.tenant + 1) % n
			}
			a.n = in.nextDelta[a.tenant]
			in.nextDelta[a.tenant]++
		case kindRegister:
			in.registered++
			a.n = in.registered
		}
		return a
	})
}

// stepStats is one ladder step.
type stepStats struct {
	rate    float64
	nominal time.Duration
	elapsed time.Duration // start to last completion, drain included
	sent    int
	failed  int
	primary []float64   // sorted primary-op latencies from intended send time, ms
	service []float64   // sorted primary-op latencies from actual send time, ms
	byKind  [][]float64 // sorted latencies per kind, ms
	quiet   []float64   // sorted latencies of deltas that carried no solve, ms
	solved  int         // deltas that carried a solve
	lateP99 float64     // p99 of (actual send − intended send), ms
	backlog int         // arrivals still unsent at the step's nominal end
	goodput float64     // successful primary ops per second of elapsed
	ok      bool        // met the latency limit without a growing backlog
}

func (in *serveInstance) analyse(rate float64, nominal, elapsed time.Duration, samples []sample) stepStats {
	st := stepStats{rate: rate, nominal: nominal, elapsed: elapsed, sent: len(samples), byKind: make([][]float64, numKinds)}
	var late []float64
	okPrimary := 0
	for _, s := range samples {
		if !s.ok {
			st.failed++
			continue
		}
		ms := s.latencyMs()
		st.byKind[s.kind] = append(st.byKind[s.kind], ms)
		if s.kind == in.spec.primary {
			st.primary = append(st.primary, ms)
			st.service = append(st.service, float64(s.done-s.sent)/float64(time.Millisecond))
			okPrimary++
		}
		if s.kind == kindDelta {
			if s.flag {
				st.solved++
			} else {
				st.quiet = append(st.quiet, ms)
			}
		}
		late = append(late, s.lateMs())
		if s.sent > nominal {
			st.backlog++
		}
	}
	sort.Float64s(st.primary)
	sort.Float64s(st.service)
	sort.Float64s(st.quiet)
	sort.Float64s(late)
	for k := range st.byKind {
		sort.Float64s(st.byKind[k])
	}
	st.lateP99 = percentile(late, 99)
	st.goodput = float64(okPrimary) / elapsed.Seconds()
	// The step holds when no request failed, the primary op's p99 and the
	// generator's own lateness are inside the limit, and what was still
	// unsent at the nominal end would drain within the limit.
	drainable := int(rate*in.spec.limitMs/1e3) + 1
	st.ok = st.failed == 0 && len(st.primary) > 0 &&
		percentile(st.primary, 99) <= in.spec.limitMs &&
		st.lateP99 <= in.spec.limitMs && st.backlog <= drainable
	return st
}

// measure warms up at the reference rate, then runs the ladder, draining
// each step before the next starts.
func (in *serveInstance) measure(c *ctx, warm, d time.Duration) *phase {
	ph := &phase{}
	count := func(samples []sample) {
		ph.attempted += len(samples)
		for _, s := range samples {
			if !s.ok {
				ph.failed++
			}
		}
	}
	if warm > 0 {
		samples, _ := runStep(len(in.senders), in.schedule(in.spec.rates[1], warm), 0, in.do)
		count(samples)
	}
	before := snapshotCounters(c.rec)
	mem0 := readMem()
	ph.start = now()
	for k, rate := range in.spec.rates {
		nominal := time.Duration(ladderShares[k] * float64(d))
		samples, elapsed := runStep(len(in.senders), in.schedule(rate, nominal), 0, in.do)
		count(samples)
		ph.ladder = append(ph.ladder, in.analyse(rate, nominal, elapsed, samples))
	}
	ph.end = now()
	ph.mem = readMem().since(mem0)
	ph.counters = counterDeltas(before, snapshotCounters(c.rec))
	in.mu.Lock()
	ph.problems = append(ph.problems, in.failureNotes...)
	in.mu.Unlock()
	ref, top := ph.ladder[1], ph.ladder[3]
	ph.primary = ref.primary
	ph.opsPerS = top.goodput
	return ph
}

// capacity is the closed-loop completion rate of the mix from all
// senders.
func (in *serveInstance) capacity(c *ctx, d time.Duration) float64 {
	// More arrivals than the fastest plausible server completes in d.
	arrivals := backToBack(in.schedule(4*in.spec.rates[3], d))
	samples, elapsed := runStep(len(in.senders), arrivals, d, in.do)
	ok := 0
	for _, s := range samples {
		if s.ok {
			ok++
		}
	}
	return float64(ok) / elapsed.Seconds()
}

func (in *serveInstance) carbonSavedPct() float64 { return in.savedPct }

func (in *serveInstance) close() {
	closeSenders(in.senders)
	if in.lb != nil {
		in.lb.close()
	}
	in.srv.Close()
}

// maxRateOK is the highest ladder rate that held.
func maxRateOK(ladder []stepStats) float64 {
	var best float64
	for _, st := range ladder {
		if st.ok && st.rate > best {
			best = st.rate
		}
	}
	return best
}

// probe reports the ladder by op type and times the handlers in process,
// one request at a time, with a response recorder instead of a socket.
func (in *serveInstance) probe(c *ctx, ph *phase, m metricSet) {
	root := c.rec.StartSpan("probe")
	defer root.End()

	ref := ph.ladder[1]
	for k, st := range ph.ladder {
		m[fmt.Sprintf("loadgen.r%d_p99_ms", k+1)] = percentile(st.primary, 99)
		m["loadgen.sent"] += float64(st.sent)
		m["loadgen.backlog_max"] = max(m["loadgen.backlog_max"], float64(st.backlog))
	}
	m["loadgen.late_p99_ms"] = ref.lateP99
	m["loadgen.max_rate_ok"] = maxRateOK(ph.ladder)
	m["controlplane.register_p50_ms"] = median(in.registerMs)
	m["controlplane.rss_kb_per_tenant"] = in.kbPerTenant
	deltas := float64(ph.counters["controlplane.deltas"])
	var solved float64
	for _, st := range ph.ladder {
		solved += float64(st.solved)
	}
	m["controlplane.solves_per_delta"] = ratio(solved, deltas)
	m["controlplane.rejected_share"] = ratio(float64(ph.counters["controlplane.rejections"]), float64(ph.attempted))
	for i := 0; i < runtime.NumCPU(); i++ {
		depth := float64(c.rec.Gauge(fmt.Sprintf("controlplane.shard.%d.queue_depth", i)).Value())
		m["controlplane.queue_depth_max"] = max(m["controlplane.queue_depth_max"], depth)
	}
	if in.spec.primary == kindDelta {
		m["controlplane.get_under_ingest_p99_ms"] = percentile(ref.byKind[kindGet], 99)
	}
	solveCounterMetrics(ph.counters, m)

	inproc := func(span, method, path string, body []byte) (int, []byte, float64) {
		req := httptest.NewRequest(method, path, nil)
		if body != nil {
			req = httptest.NewRequest(method, path, strings.NewReader(string(body)))
		}
		w := httptest.NewRecorder()
		ms := timeMs(func() {
			_ = inSpan(root, span, func() error { in.srv.ServeHTTP(w, req); return nil })
		})
		return w.Code, w.Body.Bytes(), ms
	}

	var getUs []float64
	for i := 0; i < 2000; i++ {
		t := i % in.spec.tenants
		if code, _, ms := inproc("controlplane.handlePlan", "GET", "/v1/workflows/"+in.ids[t]+"/plan", nil); code == http.StatusOK {
			getUs = append(getUs, 1e3*ms)
		}
	}
	m["controlplane.handler_get_us"] = median(getUs)

	var quietUs, solveMs []float64
	for i := 0; i < 300; i++ {
		t := i % in.spec.tenants
		if in.nextDelta[t] >= in.spec.horizonDeltas() {
			continue
		}
		a := arrival{kind: kindDelta, tenant: t, n: in.nextDelta[t]}
		in.nextDelta[t]++
		code, body, ms := inproc("controlplane.handleTrace", "POST", "/v1/workflows/"+in.ids[t]+"/trace", in.deltaBody(a))
		var tb traceBody
		if code != http.StatusOK || json.Unmarshal(body, &tb) != nil {
			continue
		}
		if tb.Solved {
			solveMs = append(solveMs, ms)
		} else {
			quietUs = append(quietUs, 1e3*ms)
		}
	}
	m["controlplane.handler_delta_us"] = median(quietUs)
	m["controlplane.handler_delta_solve_ms"] = median(solveMs)
	m["controlplane.delta_wait_ms"] = max(0, percentile(ref.quiet, 99)-median(quietUs)/1e3)

	var regMs []float64
	for i := 0; i < 20; i++ {
		in.registered++
		_, body := in.registerRequest(arrival{kind: kindRegister, n: in.registered})
		if code, _, ms := inproc("controlplane.handleRegister", "POST", "/v1/workflows", body); code == http.StatusCreated {
			regMs = append(regMs, ms)
		}
	}
	m["controlplane.handler_register_ms"] = median(regMs)

	// One client, back to back, plain GETs over the loopback socket:
	// what the socket and net/http add to the handler.
	gets := make([]arrival, 3000)
	for i := range gets {
		gets[i] = arrival{kind: kindGet, tenant: i % in.spec.tenants}
	}
	samples, _ := runStep(1, gets, 0, in.do)
	var loopUs []float64
	for _, s := range samples {
		if s.ok {
			loopUs = append(loopUs, 1e3*float64(s.done-s.sent)/float64(time.Millisecond))
		}
	}
	m["controlplane.http_overhead_us"] = max(0, median(loopUs)-median(getUs))
}
