GO ?= go

.PHONY: all build test race fuzz vet lint bench sweep-clean verify

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the concurrent packages under the race detector. Line 1:
# solver, montecarlo and telemetry in full except -short's one skip (the
# exhaustive-rows grid's untaped heavy-tail solve, a minute under the
# detector). Line 2: the tape, basis, hour-row and screen parity tests twice
# in one process, so the second pass re-enters warm scratch, accumulator
# and arena pools while Workers: 8 extend a fresh solve's one tape. Line 3:
# the control plane's shards, the manager and the run store. Line 4: the
# eval pool's determinism (Workers 1 vs 8), telemetry inertness, the shared
# carbon source and forecasters, the result codec and
# TestSimulatorBlobDigests.
race:
	$(GO) test -race -short ./internal/solver/... ./internal/montecarlo/... ./internal/telemetry/...
	$(GO) test -race -count=2 -run 'TestSharedTape|TestHourInvariance|TestEstimateBatchBoundsPerHour|TestEstimateRows|TestSolveOneMatches|TestSolveHourlyPlanReuse|TestSolveHourlyTiny|TestBasis|TestScreen|TestExhaustiveScreen|TestFuzzSeeds' ./internal/solver/ ./internal/montecarlo/
	$(GO) test -race ./internal/controlplane/... ./internal/manager/... ./internal/runstore/...
	$(GO) test -race -run 'TestPool|TestFig7|TestCoarse|TestRunAll|TestDo|TestSharedSource|TestTelemetry|TestCodecRoundTrip|TestEncodeResultDeterministic|TestSimulatorBlobDigests|TestSharedForecasts' ./internal/eval/... ./internal/carbon/... ./internal/metrics/...

# fuzz gives each native fuzz target a short budget (go test takes one
# -fuzz target per package per run); no target may panic, and:
#   FuzzEstimateRows  every hour-row entry equals Estimate(a, h) field for
#                     field; a pruned one really exceeds its threshold
#   FuzzDecodeBlob, FuzzDecodeResult  (store frame, result payload) what a
#                     decoder accepts re-encodes to the same bytes
#   FuzzLoadManifest  an accepted manifest re-marshals and re-loads equal
#   FuzzEnvelope      a payload that is not the stage's envelope is nacked
#                     and dropped; the live invocation's record is unchanged
#   FuzzBuild         an accepted graph has one start, a topological order,
#                     probabilities in [0, 1], and runs in every mode
#   FuzzRunSpec       an accepted run spec is a fixed point of SpecOf →
#                     JSON → Config with a well-formed canonical key
#   FuzzShardLock     a malformed lock neither blocks a claim nor counts as
#                     the claimer's; a live lock is never stolen
#   FuzzTraceBody, FuzzRegisterBody  no 5xx; a 2xx body is JSON; a refused
#                     request leaves the tenant's plan bytes and virtual
#                     time unchanged; its next in-horizon delta answers 200
#   FuzzWorkflowID    no 5xx on register or the three {id} routes; a
#                     registered id is reachable by its escaped path, a
#                     refused one is served nowhere
# Seeds are inline or under each package's testdata/fuzz/. FuzzDecodeResult
# seeds the 176 kB quick-fig7 blob, whose mutants would each take the
# default minute to minimize, so it runs with minimization off.
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
	$(GO) test -run xxx -fuzz FuzzWorkflowID -fuzztime $(FUZZTIME) ./internal/controlplane/

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

# bench is a short smoke pass: one iteration of every kernel benchmark in
# the module, each next to the package it measures. Use `go test -bench
# NAME -benchtime Nx ./internal/PKG/` for stable timings, and `go run
# ./benchmark` for the end-to-end workloads and per-layer metrics.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./...

# sweep-clean removes the durable run cache: the default store
# caribou-eval -cache-dir and caribou-sweep write to.
sweep-clean:
	rm -rf .caribou-cache

# verify is the pre-merge gate: full build + full suite + race-checked
# solver/montecarlo/telemetry/eval-pool + vet + the determinism lint.
verify: build test race vet lint
	@echo "verify: ok"
