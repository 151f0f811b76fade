package montecarlo

import (
	"sync"
	"sync/atomic"

	"caribou/internal/carbon"
	"caribou/internal/simclock"
	"caribou/internal/stats"
)

// Sample tapes: common-random-number compilation of the Monte Carlo hot
// path.
//
// Snapshot.Estimate derives its RNG stream from (seed, workflow) only,
// and every uniform draw inside sampleOnce — entry bytes, the
// conditional-edge coin flips, edge/output payload bytes, and the
// exec-duration quantiles — is consumed in an order decided solely by
// those draws, never by the plan or the hour under evaluation. The
// realized control flow (which nodes execute, which edges are taken, which
// sync nodes fire, where skips propagate) is therefore a pure function of
// (seed, workflow) too: a plan changes *where* a stage runs and an hour
// how carbon-intensive that is, not *what the invocation does*.
//
// The tape exploits that: once per solve it records, per sample, the
// resolved skeleton — executed nodes in loop order, each with its
// pre-drawn exec-duration quantile, per-edge outcomes with pre-drawn
// payload bytes, pre-summed sync staging totals, and the ordered sync
// targets of every skip propagation. Replaying a plan against the tape
// performs no RNG calls, no stream derivation, no conditional-probability
// branching, and no recursive skip walks — only the region-dependent
// lookups (duration quantile resolution, transfer/egress coefficients,
// intensity-weighted carbon) and the exact arithmetic of the reference
// path, in the exact same order, so replayed estimates are bit-identical
// to untaped ones by construction (pinned by the tape parity tests).
//
// The tape is compiled lazily in BatchSize increments up to MaxSamples:
// the first Estimate that needs samples [0,200) builds them, a later
// plan that converges slower extends the tape, and the extension rule
// means one tape serves every candidate plan at every hour the solver
// evaluates — HBSS rounds, exhaustive enumeration, and all hourly solves
// amortize the drawing work that the untaped path repeats per plan, and
// hour-to-hour plan differences reflect intensity, never sampling noise.
// Memory is bounded by MaxSamples × (nodes + edges) records per solve.
// Only what reads intensity[h]/txRF[h] stays per hour: the pruning-bound
// columns (hourTape) and pricing (basis.go).

// tapeStep flags.
const (
	stepSync   uint8 = 1 << iota // step executes as a fired sync node
	stepOutput                   // terminal step with a write-back draw
)

// tapeEdge kinds.
const (
	tapeEdgeSkip   uint8 = iota // conditional edge not taken: skip annotation
	tapeEdgeStage               // taken edge into a sync node: KV staging
	tapeEdgeDirect              // taken pub/sub edge
)

// tapeStep is one executed node of one recorded sample.
type tapeStep struct {
	node             int32
	flags            uint8
	u                float64 // pre-drawn exec-duration quantile
	staged           float64 // sync steps: staged bytes, pre-summed in edge order
	out              float64 // stepOutput steps: pre-drawn write-back bytes
	edgeOff, edgeEnd int32   // [edgeOff,edgeEnd) into tapeData.edges
}

// tapeEdge is one out-edge outcome of an executed node.
type tapeEdge struct {
	to               int32
	kind             uint8
	bytes            float64 // pre-drawn payload (0 for unobserved edges)
	skipOff, skipEnd int32   // tapeEdgeSkip: [skipOff,skipEnd) into skipSyncs
}

// tapeData is an immutable compiled prefix of the solve's sample stream.
// Extensions append past every published header's length and publish a
// new header, so a reader holding an old header only ever touches the
// prefix that was complete when it loaded — no locking on the read side.
// An hour's header (hourTape) is a copy of the shared one cut to the
// prefix that hour has asked for, with that hour's bound columns attached.
//
// Two layouts exist. The array-of-structs steps/edges slices are the
// reference layout the compiler emits; with SoA replay enabled (the
// default) the published header instead carries transposed dense columns
// (soaCols) and leaves steps/edges nil. Both layouts replay bit-identically
// (pinned by the tape parity tests); the column form exists because replay
// is the solver's hot loop and streams far fewer bytes per step.
type tapeData struct {
	n         int       // samples compiled
	entry     []float64 // per sample: entry payload incl. control bytes
	stepOff   []int32   // len n+1: sample i occupies steps[stepOff[i]:stepOff[i+1]]
	steps     []tapeStep
	edges     []tapeEdge
	skipSyncs []int32 // sync nodes advanced by skip propagations, in DFS order
	soa       *soaCols
	bnd       *hourBounds // hour headers only; nil when bounds are unavailable
}

// soaCols is the structure-of-arrays layout of one compiled tape prefix:
// one dense column per record field, plus per-(step, region) columns that
// bake every plan-independent quantile and coefficient the replay loop
// would otherwise recompute per candidate plan. Offsets are cumulative
// (edges of step si span edgeOff[si:si+1], skip targets of edge ei span
// skipOff[ei:ei+1]), which the compiler's contiguous emission order
// guarantees. All float64 columns of one extension are carved from a
// single arena block (see transposeSoA).
type soaCols struct {
	// Per step.
	node    []int32
	flags   []uint8
	staged  []float64 // sync steps: staged bytes
	out     []float64 // stepOutput steps: write-back bytes
	edgeOff []int32   // len(node)+1
	// Per (step, region) triples at (si*nR+r)*3: the resolved
	// exec-duration quantile, the execution energy intermediate
	// memKW·h+procKW·h of carbon.ExecutionCarbonFromFactors (so replay
	// multiplies by intensity and PUE only), and the execution cost term
	// (0 when the reference guard mem>=0 && dur>=0 fails — adding +0 to
	// the non-negative cost accumulator is exact). Interleaving the three
	// keeps a step's whole lookup on one cache line.
	drc []float64
	// aux9 holds the sync step's staged total divided by 1e9 (gigabytes).
	// The quotient is plan-independent, and float division is the single
	// longest-latency operation the replay loop would otherwise perform
	// per step, so it is baked once at transpose time — same operands,
	// same operation, bit-identical result.
	aux9 []float64
	// out9 is the output step's write-back draw divided by 1e9. It is a
	// separate column from aux9 because a terminal sync node with an
	// output distribution carries both flags and needs both quotients
	// (e.g. Text2Speech's final censoring stage).
	out9 []float64
	// entry9 is the per-sample entry payload divided by 1e9.
	entry9 []float64
	// Per edge.
	to      []int32
	kind    []uint8
	bytes   []float64
	skipOff []int32 // len(to)+1, cumulative into tapeData.skipSyncs
	// e9 is the edge's transmitted payload in gigabytes: bytes/1e9 for
	// staging edges, (bytes+controlBytes)/1e9 for direct edges (the
	// reference adds the control envelope before converting), 0 for skips.
	e9 []float64
}

// sampleTape owns the solve's lazily extended tape, shared read-only by
// every hour. The mutex serializes extensions (the RNG stream must advance
// sequentially); readers load the latest immutable prefix through the
// atomic pointer. ref is the growing AoS master the compiler appends to; in
// SoA mode it stays private and each extension is transposed into fresh
// column headers before publication.
type sampleTape struct {
	mu   sync.Mutex
	rng  *simclock.Rand // positioned after the last compiled sample
	bld  *tapeBuilder
	ref  *tapeData // AoS master; only published directly in AoS mode
	data atomic.Pointer[tapeData]
}

// ensure returns a tape prefix holding at least n samples (capped at
// MaxSamples), compiling missing batches under the extension lock. The
// fast path is a single atomic load.
func (t *sampleTape) ensure(s *Snapshot, n int) *tapeData {
	if d := t.data.Load(); d != nil && d.n >= n {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.data.Load()
	if d == nil {
		t.rng = simclock.NewRand(s.mcSeed)
		t.bld = newTapeBuilder(s.nodes.Len())
		t.ref = &tapeData{stepOff: []int32{0}}
		d = t.ref
	}
	if d.n >= n {
		return d
	}
	ref := t.ref
	oldSteps, oldEdges := len(ref.steps), len(ref.edges)
	for ref.n < n && ref.n < MaxSamples {
		for i := 0; i < BatchSize; i++ {
			s.compileSample(t.bld, t.rng, ref)
		}
		s.tel.tapeBatches.Inc()
		s.tel.tapeSamples.Add(BatchSize)
	}
	nd := &tapeData{n: ref.n, entry: ref.entry, stepOff: ref.stepOff, skipSyncs: ref.skipSyncs}
	if s.soaTapes {
		nd.soa = s.transposeSoA(d.soa, ref, oldSteps, oldEdges)
	} else {
		nd.steps = ref.steps
		nd.edges = ref.edges
	}
	t.data.Store(nd)
	return nd
}

// hourTape is what stays per hour over the shared tape: the header
// carrying the hour's pruning-bound columns (bounds.go), extended only as
// far as this hour's estimates have asked for — so its n, the look-ahead
// horizon of the single-hour prune rule, never depends on what other hours
// compiled (row sweeps pass their own horizon and ignore n; rows.go). The
// bound columns fold intensity[h]/txRF[h]; replay itself knows no hour.
type hourTape struct {
	mu   sync.Mutex // serializes header extensions
	data atomic.Pointer[tapeData]
}

// ensure returns hour h's header over a shared-tape prefix of at least n
// samples, extending the tape and then the hour's bound columns as needed.
// The fast path is a single atomic load.
func (t *hourTape) ensure(s *Snapshot, h, n int) *tapeData {
	if d := t.data.Load(); d != nil && d.n >= n {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.data.Load()
	if d != nil && d.n >= n {
		return d
	}
	nd := *s.tape.ensure(s, n)
	nd.n = min(n, nd.n)
	if nd.soa != nil && s.bnd.ok {
		nd.bnd = s.extendBounds(d, &nd, h)
	}
	t.data.Store(&nd)
	return &nd
}

// transposeSoA extends the published columns with the AoS records the
// compiler just appended (steps[oldSteps:], edges[oldEdges:]). Columns are
// immutable once published: each extension allocates exact-size arrays —
// every float64 column carved from one arena block per extension — copies
// the prior prefix, and fills the new span, so readers holding an old
// header never observe growth.
func (s *Snapshot) transposeSoA(prev *soaCols, ref *tapeData, oldSteps, oldEdges int) *soaCols {
	nR := s.nR
	nS, nE := len(ref.steps), len(ref.edges)
	c := &soaCols{
		node:    make([]int32, nS),
		flags:   make([]uint8, nS),
		edgeOff: make([]int32, nS+1),
		to:      make([]int32, nE),
		kind:    make([]uint8, nE),
		skipOff: make([]int32, nE+1),
	}
	nSamp := ref.n
	arena := make([]float64, nS*4+nE*2+nSamp+nS*nR*3)
	c.staged, arena = arena[:nS:nS], arena[nS:]
	c.out, arena = arena[:nS:nS], arena[nS:]
	c.aux9, arena = arena[:nS:nS], arena[nS:]
	c.out9, arena = arena[:nS:nS], arena[nS:]
	c.bytes, arena = arena[:nE:nE], arena[nE:]
	c.e9, arena = arena[:nE:nE], arena[nE:]
	c.entry9, arena = arena[:nSamp:nSamp], arena[nSamp:]
	c.drc = arena
	if prev != nil {
		copy(c.node, prev.node)
		copy(c.flags, prev.flags)
		copy(c.staged, prev.staged)
		copy(c.out, prev.out)
		copy(c.aux9, prev.aux9)
		copy(c.out9, prev.out9)
		copy(c.edgeOff, prev.edgeOff)
		copy(c.drc, prev.drc)
		copy(c.to, prev.to)
		copy(c.kind, prev.kind)
		copy(c.bytes, prev.bytes)
		copy(c.e9, prev.e9)
		copy(c.skipOff, prev.skipOff)
		copy(c.entry9, prev.entry9)
	}
	oldSamp := 0
	if prev != nil {
		oldSamp = len(prev.entry9)
	}
	for i := oldSamp; i < nSamp; i++ {
		c.entry9[i] = ref.entry[i] / 1e9
	}
	for i := oldSteps; i < nS; i++ {
		st := &ref.steps[i]
		c.node[i] = st.node
		c.flags[i] = st.flags
		c.staged[i] = st.staged
		c.out[i] = st.out
		if st.flags&stepSync != 0 {
			c.aux9[i] = st.staged / 1e9
		}
		if st.flags&stepOutput != 0 {
			c.out9[i] = st.out / 1e9
		}
		c.edgeOff[i] = st.edgeOff
		s.bakeStepCols(int(st.node), st.u, c.drc[i*nR*3:(i+1)*nR*3])
	}
	c.edgeOff[nS] = int32(nE)
	skips := int32(0)
	if prev != nil {
		skips = prev.skipOff[oldEdges]
	}
	for e := oldEdges; e < nE; e++ {
		te := &ref.edges[e]
		c.to[e] = te.to
		c.kind[e] = te.kind
		c.bytes[e] = te.bytes
		switch te.kind {
		case tapeEdgeStage:
			c.e9[e] = te.bytes / 1e9
		case tapeEdgeDirect:
			// The reference adds the control envelope first, then
			// converts: (bytes+controlBytes)/1e9 with that exact sum.
			c.e9[e] = (te.bytes + controlBytes) / 1e9
		}
		c.skipOff[e] = skips
		if te.kind == tapeEdgeSkip {
			skips = te.skipEnd
		}
	}
	c.skipOff[nE] = skips
	return c
}

// bakeStepCols resolves one step's region-dependent terms for every
// region into the interleaved drc triples: the duration quantile, the
// energy intermediate of carbon.ExecutionCarbonFromFactors (its exact
// parenthesized subterm, so intensity·kwh·PUE at replay reproduces the
// reference bit for bit), and the guarded execution cost. Regions with a
// deferred exec error keep zero columns — replay raises the error before
// reading them.
func (s *Snapshot) bakeStepCols(n int, u float64, drc []float64) {
	nR := s.nR
	mem := s.memoryMB[n]
	memKW, procKW := s.execMemKW[n], s.execProcKW[n]
	for r := 0; r < nR; r++ {
		if s.execErr[n*nR+r] != nil {
			continue
		}
		d := stats.SampleSorted(s.exec[n*nR+r], u)
		drc[r*3] = d
		cd := d
		if cd < 0 {
			cd = 0
		}
		hours := cd / 3600
		drc[r*3+1] = memKW*hours + procKW*hours
		if mem >= 0 && d >= 0 {
			drc[r*3+2] = mem/1024*d*s.gbSecUSD[r] + s.reqUSD[r]
		}
	}
}

// tapeBuilder holds the plan-invariant scratch flags the compiler needs
// to resolve one sample's control flow, reused across samples.
type tapeBuilder struct {
	executed    []bool
	skipped     []bool
	syncReached []bool
	staged      []float64
	stack       []snapEdge // explicit DFS stack for skip propagation
}

func newTapeBuilder(n int) *tapeBuilder {
	return &tapeBuilder{
		executed:    make([]bool, n),
		skipped:     make([]bool, n),
		syncReached: make([]bool, n),
		staged:      make([]float64, n),
	}
}

func (b *tapeBuilder) reset() {
	for i := range b.executed {
		b.executed[i] = false
		b.skipped[i] = false
		b.syncReached[i] = false
		b.staged[i] = 0
	}
}

// compileSample resolves one sample's skeleton, consuming RNG draws in
// exactly the order of the reference sampleOnce, and appends the records
// to nd. Only plan-invariant state is tracked; everything region-dependent
// is deferred to replay.
func (s *Snapshot) compileSample(b *tapeBuilder, rng *simclock.Rand, nd *tapeData) {
	b.reset()
	entryBytes := stats.SampleSorted(s.entryBytes, rng.Float64()) + controlBytes
	entry := s.start
	b.executed[entry] = true

	for n := 0; n < len(b.executed); n++ {
		if b.skipped[n] {
			continue
		}
		var flags uint8
		if s.isSync[n] {
			if !b.syncReached[n] {
				b.skipped[n] = true
				continue
			}
			flags |= stepSync
		} else if n != entry {
			if !b.executed[n] {
				continue
			}
		}

		st := tapeStep{node: int32(n), flags: flags, staged: b.staged[n]}
		st.u = rng.Float64()
		st.edgeOff = int32(len(nd.edges))
		out := s.outEdges[n]
		if len(out) == 0 {
			if ob := s.output[n]; ob != nil {
				st.flags |= stepOutput
				st.out = stats.SampleSorted(ob, rng.Float64())
			}
		} else {
			for _, edge := range out {
				taken := !edge.conditional || rng.Bool(edge.prob)
				te := tapeEdge{to: int32(edge.to)}
				if !taken {
					te.kind = tapeEdgeSkip
					te.skipOff = int32(len(nd.skipSyncs))
					nd.skipSyncs = b.propagateSkip(s, edge, nd.skipSyncs)
					te.skipEnd = int32(len(nd.skipSyncs))
				} else {
					if edge.bytes != nil {
						te.bytes = stats.SampleSorted(edge.bytes, rng.Float64())
					}
					if edge.toSync {
						te.kind = tapeEdgeStage
						b.staged[edge.to] += te.bytes
						b.syncReached[edge.to] = true
					} else {
						te.kind = tapeEdgeDirect
						b.executed[edge.to] = true
					}
				}
				nd.edges = append(nd.edges, te)
			}
		}
		st.edgeEnd = int32(len(nd.edges))
		nd.steps = append(nd.steps, st)
	}

	nd.entry = append(nd.entry, entryBytes)
	nd.stepOff = append(nd.stepOff, int32(len(nd.steps)))
	nd.n++
}

// propagateSkip walks the untaken edge's downstream closure iteratively
// in the same DFS preorder as the recursive reference, marking skipped
// nodes and recording — in visit order — each sync node that was already
// reached at that moment (replay decides whether its readiness actually
// advances, since that comparison is region-dependent).
func (b *tapeBuilder) propagateSkip(s *Snapshot, edge snapEdge, syncs []int32) []int32 {
	stack := append(b.stack[:0], edge)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.toSync {
			if b.syncReached[e.to] {
				syncs = append(syncs, int32(e.to))
			}
			continue
		}
		if b.skipped[e.to] {
			continue
		}
		b.skipped[e.to] = true
		out := s.outEdges[e.to]
		for i := len(out) - 1; i >= 0; i-- {
			stack = append(stack, out[i])
		}
	}
	b.stack = stack[:0]
	return syncs
}

// replayScratch holds the region-dependent per-sample times and the dense
// energy-by-region and gigabytes-by-pair accumulators of the sample in
// flight. Time slots hold real zeros between samples (reset is a pair of
// small memclears), so every access is a plain indexed load/store with no
// per-access staleness branch; kwh and gb are zeroed by whoever consumes
// the sample (commit, priceDense), which touches only what the sample did.
type replayScratch struct {
	start []float64
	ready []float64
	kwh   []float64 // per region
	gb    []float64 // per region pair, from*nR+to
	// buf backs the four vectors in that order, so the step kernel reaches
	// all of a lane's state through one slice header.
	buf []float64
}

func newReplayScratch(n, nR int) *replayScratch {
	buf := make([]float64, 2*n+nR+nR*nR)
	return &replayScratch{
		start: buf[:n:n],
		ready: buf[n : 2*n : 2*n],
		kwh:   buf[2*n : 2*n+nR : 2*n+nR],
		gb:    buf[2*n+nR:],
		buf:   buf,
	}
}

// reset zeroes the time slots, the state the reference path starts a sample
// with. The fused loop stays an open-coded store sequence — a
// single-slice clear loop would compile to a runtime memclr call, whose
// fixed overhead dwarfs the handful of stores at real DAG sizes and
// shows up at the hundreds of thousands of per-sample resets one solve
// performs.
func (sc *replayScratch) reset() {
	st, rd := sc.start, sc.ready
	for i := range st {
		st[i] = 0
		rd[i] = 0
	}
}

// estimateTaped is the array-of-structs layout's plan-at-a-time path: it
// mirrors estimateUntaped's batched stopping rule but replays pre-compiled
// samples instead of drawing them, extending the shared tape only as far as
// this plan's convergence requires. (SoA tapes evaluate through sweeps,
// batch.go.)
func (s *Snapshot) estimateTaped(assign []int, h int) (*Estimate, error) {
	t := s.tapes[h]
	sc := s.getScratch()
	defer s.putScratch(sc)
	acc := s.getAcc()
	defer s.putAcc(acc)
	for acc.samples() < MaxSamples {
		need := acc.samples() + BatchSize
		td := t.ensure(s, h, need)
		for i := acc.samples(); i < need; i++ {
			smp, err := s.replaySample(td, i, h, assign, sc)
			if err != nil {
				return nil, err
			}
			acc.add(smp)
		}
		if acc.converged() {
			break
		}
	}
	s.tel.estimates.Inc()
	s.tel.samples.Add(int64(acc.samples()))
	s.tel.tapeReplays.Add(int64(acc.samples()))
	return acc.summarize()
}

// replaySample evaluates recorded sample i under the dense assignment and
// prices it at hour h. The arithmetic — every addition, comparison, and
// their order — matches sampleOnce exactly; only the draws are read from
// the tape.
func (s *Snapshot) replaySample(td *tapeData, i, h int, assign []int, sc *replayScratch) (sample, error) {
	sc.reset()
	var smp sample
	home := s.home
	nR := s.nR

	traffic := func(from, to int, bytes float64) {
		if bytes > 0 {
			q := bytes / 1e9
			sc.gb[from*nR+to] += q
			smp.cost += q * s.egressPerGB[from*nR+to]
		}
	}
	transfer := func(from, to int, bytes float64) float64 {
		if bytes < 0 {
			bytes = 0
		}
		return s.txBase[from*nR+to] + bytes*s.txPerByte[from*nR+to]
	}

	entry := s.start
	entryRegion := assign[entry]
	entryBytes := td.entry[i]
	smp.cost += s.dynReadUSD
	smp.cost += s.snsUSD[home]
	traffic(home, entryRegion, entryBytes)
	sc.start[entry] = s.kvAccess[home] + s.msgOverhead + transfer(home, entryRegion, entryBytes)

	for si := td.stepOff[i]; si < td.stepOff[i+1]; si++ {
		st := &td.steps[si]
		n := int(st.node)
		r := assign[n]
		var startN float64
		if st.flags&stepSync != 0 {
			staged := st.staged
			smp.cost += s.snsUSD[home]
			traffic(home, r, controlBytes)
			arrive := sc.ready[n] + s.msgOverhead + transfer(home, r, controlBytes)
			load := s.kvAccess[r] + transfer(home, r, staged)
			smp.cost += s.dynReadUSD
			traffic(home, r, staged)
			startN = arrive + load
		} else {
			startN = sc.start[n]
		}

		if err := s.execErr[n*nR+r]; err != nil {
			clear(sc.kwh)
			clear(sc.gb)
			return smp, err
		}
		dur := stats.SampleSorted(s.exec[n*nR+r], st.u)
		mem := s.memoryMB[n]
		finish := startN + dur
		if finish > smp.latency {
			smp.latency = finish
		}
		sc.kwh[r] += carbon.ExecutionEnergyKWh(mem, dur, s.cpuUtil[n])
		if mem >= 0 && dur >= 0 {
			smp.cost += mem/1024*dur*s.gbSecUSD[r] + s.reqUSD[r]
		}

		if st.flags&stepOutput != 0 {
			traffic(r, home, st.out)
			continue
		}
		for ei := st.edgeOff; ei < st.edgeEnd; ei++ {
			e := &td.edges[ei]
			to := int(e.to)
			switch e.kind {
			case tapeEdgeSkip:
				for k := e.skipOff; k < e.skipEnd; k++ {
					sn := int(td.skipSyncs[k])
					if finish > sc.ready[sn] {
						sc.ready[sn] = finish
					}
				}
				smp.cost += s.dynWriteUSD // skip annotation
			case tapeEdgeStage:
				smp.cost += s.dynWriteUSD
				smp.cost += s.dynWriteUSD
				traffic(r, home, e.bytes)
				ready := finish + transfer(r, home, e.bytes) + s.kvAccess[r]
				if ready > sc.ready[to] {
					sc.ready[to] = ready
				}
			case tapeEdgeDirect:
				smp.cost += s.snsUSD[r]
				total := e.bytes + controlBytes
				traffic(r, assign[to], total)
				arrive := finish + s.msgOverhead + transfer(r, assign[to], total)
				if arrive > sc.start[to] {
					sc.start[to] = arrive
				}
			}
		}
	}
	smp.execCarbon, smp.txCarbon = s.priceDense(h, sc.kwh, sc.gb)
	return smp, nil
}
