GO ?= go

.PHONY: all build test race fuzz vet lint bench sweep-clean verify eval-output

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The solver, montecarlo, eval, and carbon packages fan work across
# goroutines; run them under the race detector in addition to the plain
# suite. The eval pass includes the worker-pool determinism tests
# (bit-identical figures at Workers=1 vs Workers=8), the telemetry
# inertness tests (bit-identical figures with the recorder on vs off),
# the shared trace-cache concurrency tests, the result codec's round
# trip and byte-determinism (pool workers decode blobs concurrently against
# the shared carbon traces), and TestSimulatorBlobDigests (every quick
# Fig 7 run, a plain-SNS and a Step Functions day and an adaptive Fig 11
# run must record the bytes whose SHA-256 is checked in: the simulator's
# draws, event order and record layout under the detector's scheduling).
# The first line runs -short: that skips only
# the exhaustive-rows grid's untaped heavy-tail solve (6144 unpruned
# estimates, a minute under the detector) — Workers 8 vs 1 on the row path,
# with its counter totals, runs in full. The second line re-runs the shared-tape,
# hour-row and basis tests twice in one process — the second pass re-enters
# warm scratch, accumulator and arena-slab pools while Workers: 8 row chunks
# (or 24 HBSS hour coordinators sharing one basis memo: a plan's first
# replay in flight is waited for without holding an evaluation slot) extend
# a fresh solve's one tape. TestScreen and TestExhaustiveScreen are the row
# screen's soundness and solver-parity tests (the statistics against the
# reference rule; screened, tightened exhaustive solves against untaped at
# Workers 1 and 8); TestFuzzSeeds replays the corpus seeds that reach it.
race:
	$(GO) test -race -short ./internal/solver/... ./internal/montecarlo/... ./internal/telemetry/...
	$(GO) test -race -count=2 -run 'TestSharedTape|TestHourInvariance|TestEstimateBatchBoundsPerHour|TestEstimateRows|TestSolveOneMatches|TestSolveHourlyPlanReuse|TestSolveHourlyTiny|TestBasis|TestDeltaHeavyTail|TestScreen|TestExhaustiveScreen|TestFuzzSeeds' ./internal/solver/ ./internal/montecarlo/
	$(GO) test -race ./internal/controlplane/... ./internal/manager/... ./internal/runstore/...
	$(GO) test -race -run 'TestPool|TestFig7|TestCoarse|TestRunAll|TestDo|TestSharedSource|TestTelemetry|TestCodecRoundTrip|TestEncodeResultDeterministic|TestSimulatorBlobDigests' ./internal/eval/... ./internal/carbon/...

# fuzz gives the module's native fuzz targets a short budget each (go test
# takes one -fuzz target per package per run). FuzzEstimateRows: bytes →
# fixture, metric, threshold scale and up to four dense assignments; every
# row entry must equal Estimate(a, h) field for field, every pruned one
# must really exceed its threshold. FuzzDecodeBlob and FuzzDecodeResult are
# the two decoders of on-disk bytes (the store's frame, the result payload
# inside it): neither may panic, and whatever one accepts must re-encode to
# the same bytes. FuzzLoadManifest is the deployment manifest's JSON
# decoder: it may not panic, and an accepted manifest must re-marshal and
# re-load to an equal DeploymentConfig. FuzzEnvelope delivers arbitrary
# bytes to a deployed function's topic and to the executor's drop callback
# while an invocation is live: nothing panics, a payload that is not that
# stage's envelope is nacked until the broker drops it, and the live
# invocation's record does not change. FuzzBuild maps bytes to a node/edge
# list (cycles, self-loops, duplicate and empty ids, several starts, NaN
# and out-of-range probabilities): Build never panics and an accepted graph
# has one start, a forward-pointing topological order, probabilities in
# [0, 1], compiles into the executor's node table and drains an invocation
# in every orchestration mode. FuzzRunSpec is the sweep manifest's run
# decoder (bytes → RunSpec JSON → Config): nothing panics, the canonical
# key of an accepted configuration is well-formed, and SpecOf(cfg) is a
# fixed point of the JSON round trip. FuzzShardLock plants arbitrary bytes
# as a shard's lock file: Claim and Renew never panic, a malformed lock
# neither blocks a claim nor counts as the claimer's, and a live lock of
# another owner is never stolen. Seed corpora live under each
# package's testdata/fuzz/ (FuzzLoadManifest's seeds are inline, most of
# FuzzRunSpec's and FuzzShardLock's too). FuzzTraceBody and
# FuzzRegisterBody post arbitrary bytes as a trace delta of, and as a
# registration beside, a freshly registered tenant: no 5xx, no panic, a
# 2xx body is JSON, a refused request leaves that tenant's GET /plan
# bytes and virtual time unchanged, virtual time never decreases, and the
# tenant's next in-horizon delta answers 200 (seeds inline).
# FuzzDecodeResult also seeds the checked-in 176 kB quick-fig7 blob, whose
# mutants would each take the default minute to minimize, so that target
# runs with minimization off.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzEstimateRows -fuzztime $(FUZZTIME) ./internal/montecarlo/
	$(GO) test -run xxx -fuzz FuzzDecodeBlob -fuzztime $(FUZZTIME) ./internal/runstore/
	$(GO) test -run xxx -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/eval/
	$(GO) test -run xxx -fuzz FuzzLoadManifest -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz FuzzEnvelope -fuzztime $(FUZZTIME) ./internal/executor/
	$(GO) test -run xxx -fuzz FuzzBuild -fuzztime $(FUZZTIME) ./internal/dag/
	$(GO) test -run xxx -fuzz FuzzRunSpec -fuzztime $(FUZZTIME) ./internal/eval/
	$(GO) test -run xxx -fuzz FuzzShardLock -fuzztime $(FUZZTIME) ./internal/runstore/
	$(GO) test -run xxx -fuzz FuzzTraceBody -fuzztime $(FUZZTIME) ./internal/controlplane/
	$(GO) test -run xxx -fuzz FuzzRegisterBody -fuzztime $(FUZZTIME) ./internal/controlplane/

# vet runs with the same build tags as the build (none today; set
# VET_TAGS if that changes) and pins GOFLAGS=-mod=mod so local runs and
# CI agree even when a parent environment sets -mod=readonly or vendor.
# CI runs the identical invocation (see .github/workflows/ci.yml).
VET_TAGS ?=
vet:
	GOFLAGS=-mod=mod $(GO) vet -tags '$(VET_TAGS)' ./...

# lint runs the in-repo determinism & telemetry analyzer suite
# (internal/analysis, driven by cmd/caribou-lint): wallclock, globalrand,
# maporder, hotsprintf, goroutines, dettaint, hotalloc and atomicpub, plus
# the allow meta-check on //caribou:allow <check> <reason> suppressions.
# DESIGN.md "Static analysis" and "Static analysis v2" say what each
# enforces and why.
lint:
	$(GO) run ./cmd/caribou-lint ./...

# bench is a short smoke pass (one iteration per benchmark) so the whole
# suite stays in CI budget; use `go test -bench . -benchtime Nx .` for
# stable timings, and `go run ./benchmark` for the serving workloads.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .

# sweep-clean removes the durable run cache: the default store
# caribou-eval -cache-dir and caribou-sweep write to.
sweep-clean:
	rm -rf .caribou-cache

# verify is the pre-merge gate: full build + full suite + race-checked
# solver/montecarlo/telemetry/eval-pool + vet + the determinism lint.
verify: build test race vet lint
	@echo "verify: ok"

# eval-output regenerates the quick-mode sample of every experiment. The
# artifact is gitignored — regenerate locally instead of versioning it.
eval-output:
	$(GO) run ./cmd/caribou-eval -quick all > eval_output.txt
