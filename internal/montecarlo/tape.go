package montecarlo

import (
	"slices"
	"sync"
	"sync/atomic"

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
// lookups (the step's duration, energy and cost in the assigned region,
// resolved for every region at compile time; transfer/egress coefficients)
// and the exact arithmetic of the reference path, in the exact same order,
// so replayed estimates are bit-identical to untaped ones by construction
// (pinned by the tape parity tests).
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
// columns (bounds.go) and pricing (basis.go).

// Step flags.
const (
	stepSync   uint8 = 1 << iota // step executes as a fired sync node
	stepOutput                   // terminal step with a write-back draw
)

// Edge kinds.
const (
	tapeEdgeSkip   uint8 = iota // conditional edge not taken: skip annotation
	tapeEdgeStage               // taken edge into a sync node: KV staging
	tapeEdgeDirect              // taken pub/sub edge
)

// tapeData is a header over a compiled prefix of the solve's sample
// stream: one dense column per record field — replay is the solver's hot
// loop, and columns stream only the bytes a step reads — plus
// per-(step, region) columns that bake every plan-independent quantile and
// coefficient the replay loop would otherwise recompute per candidate plan.
//
// Columns are append-only. The compiler (compileSample) appends to the
// master copy under the extension lock and publishes a copy of its slice
// headers; an append either writes past every published length or moves
// the column to a new array, so a reader holding an old header only ever
// touches the prefix that was complete when it loaded — no locking on the
// read side. That is why the offset columns hold end offsets behind a
// leading 0 (step si's edges are [edgeOff[si], edgeOff[si+1]), edge ei's
// skip targets [skipOff[ei], skipOff[ei+1])): a start offset plus a closing
// sentinel would have every extension rewrite an index a published header
// can read.
type tapeData struct {
	n int // samples compiled

	// Per sample.
	entry   []float64 // entry payload incl. control bytes
	entry9  []float64 // entry / 1e9
	stepOff []int32   // len n+1: sample i occupies steps stepOff[i]:stepOff[i+1]

	// Per step (an executed node of one sample, in loop order).
	node    []int32
	flags   []uint8
	staged  []float64 // sync steps: staged bytes, pre-summed in edge order
	out     []float64 // stepOutput steps: pre-drawn write-back bytes
	edgeOff []int32   // len(node)+1
	// Per (step, region) triples at (si*nR+r)*3: the resolved
	// exec-duration quantile, the execution energy intermediate
	// memKW·h+procKW·h on carbon.ExecutionFactors' coefficients (so
	// replay multiplies by intensity and PUE only), and the execution cost term
	// (0 when the reference guard mem>=0 && dur>=0 fails — adding +0 to
	// the non-negative cost accumulator is exact). Interleaving the three
	// keeps a step's whole lookup on one cache line.
	drc []float64
	// aux9 holds the sync step's staged total divided by 1e9 (gigabytes).
	// The quotient is plan-independent, and float division is the single
	// longest-latency operation the replay loop would otherwise perform
	// per step, so it is baked once at compile time — same operands, same
	// operation, bit-identical result.
	aux9 []float64
	// out9 is the output step's write-back draw divided by 1e9. It is a
	// separate column from aux9 because a terminal sync node with an
	// output distribution carries both flags and needs both quotients
	// (e.g. Text2Speech's final censoring stage).
	out9 []float64

	// Per edge (an out-edge outcome of an executed node).
	to      []int32
	kind    []uint8
	bytes   []float64 // pre-drawn payload (0 for unobserved edges)
	skipOff []int32   // len(to)+1, into skipSyncs
	// e9 is the edge's transmitted payload in gigabytes: bytes/1e9 for
	// staging edges, (bytes+controlBytes)/1e9 for direct edges (the
	// reference adds the control envelope before converting), 0 for skips.
	e9 []float64

	skipSyncs []int32 // sync nodes advanced by skip propagations, in DFS order

	// Per batch: the node index replay walks (basis.go). For batch k and
	// node n, entries [nodeOff[k*N+n], nodeOff[k*N+n+1]) (N nodes) list the
	// batch's samples that executed n, ascending: nodeSample is the sample's
	// index within the batch, nodeStep its step executing n. A sample
	// executes a node at most once, so the entries are the batch's steps
	// regrouped by node and span the same offsets as the step columns.
	nodeOff    []int32 // len batches*N+1
	nodeSample []int32
	nodeStep   []int32
}

// sampleTape owns the solve's lazily extended tape, shared read-only by
// every hour. The mutex serializes extensions (the RNG stream must advance
// sequentially); readers load the latest published header through the
// atomic pointer. cols is the column master only ensure appends to.
type sampleTape struct {
	mu   sync.Mutex
	rng  *simclock.Rand // positioned after the last compiled sample
	bld  *tapeBuilder
	cols tapeData
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
	if d := t.data.Load(); d != nil && d.n >= n {
		return d
	}
	if t.rng == nil {
		t.rng = simclock.NewRand(s.mcSeed)
		t.bld = newTapeBuilder(s)
		t.cols = tapeData{stepOff: []int32{0}, edgeOff: []int32{0}, skipOff: []int32{0}, nodeOff: []int32{0}}
	}
	cols := &t.cols
	if more := min(n, MaxSamples) - cols.n; more > 0 {
		more = (more + BatchSize - 1) / BatchSize * BatchSize
		cols.reserve(more, more*len(t.bld.executed), more*t.bld.edges, s.nR)
	}
	for cols.n < n && cols.n < MaxSamples {
		for i := 0; i < BatchSize; i++ {
			s.compileSample(t.bld, t.rng, cols)
		}
		t.bld.indexBatch(cols)
		s.tel.tapeBatches.Inc()
		s.tel.tapeSamples.Add(BatchSize)
	}
	nd := *cols
	t.data.Store(&nd)
	return &nd
}

// reserve makes room for an extension of samples more samples holding at
// most steps step records and edges edge records — a sample executes each
// node and resolves each out-edge at most once — so the extension allocates
// once per column instead of climbing append's doubling ladder (most solves
// never compile a second batch). slices.Grow keeps growth across extensions
// amortized; skipSyncs has no such bound and grows by append alone.
func (d *tapeData) reserve(samples, steps, edges, nR int) {
	d.entry = slices.Grow(d.entry, samples)
	d.entry9 = slices.Grow(d.entry9, samples)
	d.stepOff = slices.Grow(d.stepOff, samples)
	d.node = slices.Grow(d.node, steps)
	d.flags = slices.Grow(d.flags, steps)
	d.staged = slices.Grow(d.staged, steps)
	d.out = slices.Grow(d.out, steps)
	d.aux9 = slices.Grow(d.aux9, steps)
	d.out9 = slices.Grow(d.out9, steps)
	d.edgeOff = slices.Grow(d.edgeOff, steps)
	d.drc = slices.Grow(d.drc, steps*nR*3)
	d.to = slices.Grow(d.to, edges)
	d.kind = slices.Grow(d.kind, edges)
	d.bytes = slices.Grow(d.bytes, edges)
	d.e9 = slices.Grow(d.e9, edges)
	d.skipOff = slices.Grow(d.skipOff, edges)
}

// indexBatch appends the node index of the batch compiled last: a counting
// sort of its steps by node, walking samples and their steps in order, so
// every node's entries come out with samples ascending. The new entries lie
// past every published length, like the other columns' appends. The index
// grows by what the batch ran, not by reserve's bound.
func (b *tapeBuilder) indexBatch(d *tapeData) {
	i0 := d.n - BatchSize
	lo, hi := d.stepOff[i0], d.stepOff[d.n]
	next := b.next
	clear(next)
	for _, n := range d.node[lo:hi] {
		next[n]++
	}
	at := lo
	for n, c := range next {
		next[n] = at
		at += c
		d.nodeOff = append(d.nodeOff, at)
	}
	d.nodeSample = slices.Grow(d.nodeSample, int(hi-lo))[:hi]
	d.nodeStep = slices.Grow(d.nodeStep, int(hi-lo))[:hi]
	for j := range BatchSize {
		for si := d.stepOff[i0+j]; si < d.stepOff[i0+j+1]; si++ {
			n := d.node[si]
			d.nodeSample[next[n]] = int32(j)
			d.nodeStep[next[n]] = si
			next[n]++
		}
	}
}

// bakeStepCols resolves one step's region-dependent terms for every
// region into the interleaved drc triples: the duration quantile, the
// energy intermediate memKW·h+procKW·h on carbon.ExecutionFactors'
// coefficients (so intensity·kwh·PUE at replay reproduces
// carbon.ExecutionCarbon bit for bit), and the guarded execution cost. Regions with a
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
	edges       int        // out-edges in the DAG: the most one sample resolves
	next        []int32    // indexBatch's per-node write cursor
}

func newTapeBuilder(s *Snapshot) *tapeBuilder {
	n := s.nodes.Len()
	b := &tapeBuilder{
		executed:    make([]bool, n),
		skipped:     make([]bool, n),
		syncReached: make([]bool, n),
		staged:      make([]float64, n),
		next:        make([]int32, n),
	}
	for _, out := range s.outEdges {
		b.edges += len(out)
	}
	return b
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
// exactly the order of the reference sampleOnce, and appends it to nd's
// columns. Only plan-invariant state is tracked; everything
// region-dependent is either baked per region here (bakeStepCols) or
// deferred to replay.
func (s *Snapshot) compileSample(b *tapeBuilder, rng *simclock.Rand, nd *tapeData) {
	b.reset()
	entryBytes := stats.SampleSorted(s.entryBytes, rng.Float64()) + controlBytes
	entry := s.start
	b.executed[entry] = true
	nR3 := s.nR * 3

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

		staged := b.staged[n]
		u := rng.Float64() // exec-duration quantile
		var outBytes, aux9, out9 float64
		if flags&stepSync != 0 {
			aux9 = staged / 1e9
		}
		out := s.outEdges[n]
		if len(out) == 0 {
			if ob := s.output[n]; ob != nil {
				flags |= stepOutput
				outBytes = stats.SampleSorted(ob, rng.Float64())
				out9 = outBytes / 1e9
			}
		} else {
			for _, edge := range out {
				taken := !edge.conditional || rng.Bool(edge.prob)
				kind := tapeEdgeSkip
				var bytes, e9 float64
				if !taken {
					nd.skipSyncs = b.propagateSkip(s, edge, nd.skipSyncs)
				} else {
					if edge.bytes != nil {
						bytes = stats.SampleSorted(edge.bytes, rng.Float64())
					}
					if edge.toSync {
						kind = tapeEdgeStage
						e9 = bytes / 1e9
						b.staged[edge.to] += bytes
						b.syncReached[edge.to] = true
					} else {
						kind = tapeEdgeDirect
						// The reference adds the control envelope first, then
						// converts: (bytes+controlBytes)/1e9 with that exact sum.
						e9 = (bytes + controlBytes) / 1e9
						b.executed[edge.to] = true
					}
				}
				nd.to = append(nd.to, int32(edge.to))
				nd.kind = append(nd.kind, kind)
				nd.bytes = append(nd.bytes, bytes)
				nd.e9 = append(nd.e9, e9)
				nd.skipOff = append(nd.skipOff, int32(len(nd.skipSyncs)))
			}
		}
		nd.node = append(nd.node, int32(n))
		nd.flags = append(nd.flags, flags)
		nd.staged = append(nd.staged, staged)
		nd.out = append(nd.out, outBytes)
		nd.aux9 = append(nd.aux9, aux9)
		nd.out9 = append(nd.out9, out9)
		nd.edgeOff = append(nd.edgeOff, int32(len(nd.to)))
		nd.drc = append(nd.drc, make([]float64, nR3)...)
		s.bakeStepCols(n, u, nd.drc[len(nd.drc)-nR3:])
	}

	nd.entry = append(nd.entry, entryBytes)
	nd.entry9 = append(nd.entry9, entryBytes/1e9)
	nd.stepOff = append(nd.stepOff, int32(len(nd.node)))
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

// replayScratch holds the per-node times of the sample the bound replay
// (bounds.go) walks. The slots hold real zeros between samples (reset is a
// pair of small memclears), so every access is a plain indexed load/store
// with no per-access staleness branch.
type replayScratch struct {
	start []float64
	ready []float64
}

func newReplayScratch(n int) *replayScratch {
	buf := make([]float64, 2*n)
	return &replayScratch{start: buf[:n:n], ready: buf[n:]}
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
