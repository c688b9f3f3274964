GO ?= go

.PHONY: all build loc benchmark-build benchmark-test vet fmt-check lint test test-fault test-scale test-scale-full race fuzz test-fuzz bench bench-smoke alloc-free profile-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Non-test Go lines outside benchmark/: the count a simplification quotes.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmark/' | xargs cat | wc -l

# The benchmark module (its own go.mod) compiles against internal/ but is
# outside root ./...; -o /dev/null keeps its package-main binary out of
# the tree.
benchmark-build:
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# The benchmark module's own tests (workload wiring, ledger and report
# checks), which root `go test ./...` does not reach.
benchmark-test:
	cd benchmark && $(GO) test ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static checks only (no tests): formatting and go vet.
lint: fmt-check vet

test:
	$(GO) test ./...

# The fault-injection subsystem end to end: the plan/injector/oracle unit
# tests, the scripted recovery-path suite, and the fault-plan replication
# and churn-matrix integration tests.
test-fault:
	$(GO) test ./internal/fault/...
	$(GO) test -run 'TestRecoveryPaths' ./internal/core/
	$(GO) test -run 'TestFault|TestReboot|TestKillNode|TestLongChurn' ./internal/experiment/

# The sparse-medium scaling contract under the race detector, in short
# mode: dense/sparse equivalence, the grid spatial index, per-link fault
# offsets, the 1k-node field smoke, and the awake-only fan-out with its
# per-frame receiver lists.
test-scale:
	$(GO) test -race -short \
		-run 'Grid1k|GridIndex|SparseMatchesDense|SparseTrace|LinkOffsetStore|ReseedPCG|AwakeFanout|ReceiverList' \
		./internal/radio/ ./internal/topology/ ./internal/experiment/

# The multi-minute 1k-node studies: 2-seed serial-vs-parallel replication
# byte-identity and the full control study on grid1k. Opt-in (they exceed
# the default per-package test timeout budget); expect ~20 minutes.
test-scale-full:
	TELEADJUST_SCALE=1 $(GO) test -v -timeout 45m -run 'TestGrid1k' ./internal/experiment/

# Every package once under the race detector. internal/experiment alone
# runs close to go test's default 10-minute timeout there, so the bound
# is explicit.
race:
	$(GO) test -race -timeout 30m ./...

# Brief fuzz pass over each wire-codec target, the codec-allocator
# invariant target, the fault-plan parser, the sink scheduler's subtree
# grouping key, the radio's fast dBm→mW kernel (the powers every reception
# and CCA decision uses) against math.Pow, and the table bracket that
# settles the radio's draw-first reception decision against the PRR curve
# (the committed corpora under */testdata/fuzz always run as part of plain
# `go test`).
FUZZTIME ?= 5s
fuzz:
	@for t in FuzzDecodeCode FuzzUnmarshalExt FuzzUnmarshalControl \
		FuzzUnmarshalFeedback FuzzUnmarshalCodeReport FuzzUnmarshalE2EAck \
		FuzzControlEncode FuzzExtEncode FuzzExtEncodeLabels FuzzCodecLabels \
		FuzzBatchControlWire; do \
		$(GO) test ./internal/core/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/fault/ -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sink/ -run '^$$' -fuzz '^FuzzGroupKey$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/radio/ -run '^$$' -fuzz '^FuzzFastMW$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/radio/ -run '^$$' -fuzz '^FuzzRxDecide$$' -fuzztime $(FUZZTIME)

test-fuzz: fuzz

bench:
	$(GO) test -bench=. -benchmem .

# One-iteration smoke pass over the benchmarks that assert contracts (the
# telemetry plane's disabled/traced split, the sink scheduler's
# concurrency speedup, the sparse medium's construction/per-frame
# scaling and duty-cycled delivery, the windowed aggregator's alloc-free
# fold, the CPM chain step and model build, CTP's alloc-free parent pick,
# the MAC's alloc-free receive path and Trickle's alloc-free interval
# start) — fast enough for CI, still failing on regression.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverhead|BenchmarkSinkSchedulerGoodput|BenchmarkCmdSvcBatching' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkMediumConstruction|BenchmarkMediumScale|BenchmarkMediumDutyCycled' -benchtime=1x ./internal/radio/
	$(GO) test -run '^$$' -bench 'BenchmarkAggregatorFold' -benchmem -benchtime=1x ./internal/obs/
	$(GO) test -run '^$$' -bench 'BenchmarkSourceNext|BenchmarkSourceReadAt|BenchmarkTrain' -benchmem -benchtime=1x ./internal/noise/
	$(GO) test -run '^$$' -bench 'BenchmarkScheduleAndRun|BenchmarkTimerRestart' -benchmem -benchtime=1x ./internal/sim/
	$(MAKE) alloc-free
	$(GO) test -run 'TestBenchSpeedTrajectory' .

# The hot paths' alloc-free tests (scheduler, noise chain, frame path,
# duty-cycled field, MAC receive, parent pick, Trickle interval start,
# telemetry emit with no subscriber, windowed-aggregator fold): the one
# list bench-smoke and CI both run. ALLOC_FLAGS=-v lists them.
alloc-free:
	$(GO) test $(ALLOC_FLAGS) -run 'TestScheduleAllocFree|TestSourceNextAllocFree|TestSuccessorLinksMatchResolve|TestTrainAllocBound|TestBroadcastAllocFree|TestDutyCycledAllocFree|TestMACReceiveAllocFree|TestEvaluateAllocFree|TestTrickleIntervalAllocFree|TestBusEmitNoSubscriberAllocFree|TestFoldAllocFree' ./internal/sim/ ./internal/noise/ ./internal/radio/ ./internal/mac/ ./internal/ctp/ ./internal/trickle/ ./internal/telemetry/ ./internal/obs/

# CI-sized profile capture: a short line-scenario run proving the
# -cpuprofile/-memprofile/-exectrace plumbing produces loadable captures.
# For a real profile, run a study with the same flags; the benchmark
# module's traced per-layer ledger (benchmark/) records where CPU goes.
PROFILE_DIR ?= profiles
profile-smoke:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/teleadjust-sim -scenario line -study control -proto retele \
		-warmup 90s -packets 3 -interval 16s \
		-cpuprofile $(PROFILE_DIR)/smoke_cpu.pprof \
		-memprofile $(PROFILE_DIR)/smoke_mem.pprof \
		-exectrace $(PROFILE_DIR)/smoke_trace.out
	$(GO) tool pprof -top -nodecount 3 $(PROFILE_DIR)/smoke_cpu.pprof
	$(GO) tool pprof -top -nodecount 3 -sample_index=alloc_space $(PROFILE_DIR)/smoke_mem.pprof

check: build vet fmt-check test benchmark-build
