GO ?= go
BENCH_TOLERANCE ?= 0.10

.PHONY: build vet fmt lint test race fuzz fuzz-scenario fuzz-ps fuzz-obs fuzz-simtime coverfloor chaos verify bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails when gofmt -l lists any file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

# Determinism lint suite (internal/lint) plus go vet: eight per-package
# analyzers, the whole-program reachability passes (transitive walltime /
# globalrand with call chains, and deadcode: functions no main, init or
# package variable reaches), and the hotalloc escape-analysis gate. Any
# finding fails. See DESIGN.md "Static analysis".
lint:
	$(GO) run ./cmd/antidope-lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage-guided smoke of the full simulator; CI runs the same budget.
# Every fuzz smoke here and in CI passes -fuzzminimizetime=0: minimizing
# each new input (up to 60 s by default) would stall the 30 s budget. A
# failing input is still written to testdata/fuzz, unminimized.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzSim -fuzztime=30s -fuzzminimizetime=0 ./internal/core

# Scenario-DSL fuzz smoke: arbitrary bytes through parse -> compile;
# asserts no panics, structured rejections, and deterministic decoding and
# compilation. No simulations run, so iterations are cheap.
fuzz-scenario:
	$(GO) test -run='^$$' -fuzz=FuzzScenario -fuzztime=30s -fuzzminimizetime=0 ./internal/scenario

# Processor-sharing differential smoke: random admit/advance/cap/crash
# sequences through the virtual-time server and the reference per-request
# scan in lockstep; asserts identical counts and completion order.
fuzz-ps:
	$(GO) test -run='^$$' -fuzz=FuzzPSDifferential -fuzztime=30s -fuzzminimizetime=0 ./internal/server

# Chrome-trace export differential smoke: random event streams of every
# kind, with non-finite, subnormal and half-way timestamps, through the
# append-buffer writer and the reference writer; asserts identical bytes.
fuzz-obs:
	$(GO) test -run='^$$' -fuzz=FuzzChromeTraceDifferential -fuzztime=30s -fuzzminimizetime=0 ./internal/obs

# Event-engine differential smoke: random schedule/cancel/reschedule/step/
# drain/reset/ticker sequences through the indexed heap and the reference
# lazy-cancellation queue in lockstep; asserts identical firing sequences,
# clocks, counters and handle states.
fuzz-simtime:
	$(GO) test -run='^$$' -fuzz=FuzzEngineDifferential -fuzztime=30s -fuzzminimizetime=0 ./internal/simtime

# Statement-coverage floors for the scenario DSL: the parser in
# internal/scenario, and the compiler and report printer in
# internal/experiments as the DSL's tests drive them. Mirrors the CI gate
# so a lost test trips locally too.
coverfloor:
	sh scripts/coverfloor.sh 80 ./internal/scenario
	sh scripts/coverfloor.sh 80 -coverpkg=./internal/experiments ./internal/scenario -- antidope/internal/experiments/scenario.go

# Fault-injection suite under the race detector plus a fuzz smoke that feeds
# malformed fault schedules into full runs; mirrors the CI chaos job. The
# Net|Partition patterns pull in the network-condition suite (link loss,
# latency, partitions, retry/backoff) and TestResilience covers both the
# fault and network-chaos sweep goldens. See DESIGN.md "Fault model &
# graceful degradation".
chaos:
	$(GO) test -race -count=1 ./internal/faults
	$(GO) test -race -count=1 -run 'Fault|Crash|Telemetry|Firewall|Breaker|Failed|Fade|Down|Recovered|Net|Partition' ./internal/core ./internal/server ./internal/netlb ./internal/battery ./internal/defense
	$(GO) test -race -count=1 -run 'TestResilience' ./internal/experiments
	$(GO) test -run='^$$' -fuzz=FuzzFaultSchedule -fuzztime=30s -fuzzminimizetime=0 ./internal/core

# Tier-1 verify: what every PR must keep green. The lint target already
# includes go vet, and race subsumes plain test.
verify: build fmt lint race

# Hot-path micro-benchmarks plus the quick-suite macro run, gated against the
# checked-in baseline (BENCH_3.json). Writes the fresh numbers to
# BENCH_new.json; fails when any ns/op, or any allocs/op the baseline
# records as nonzero, regresses more than BENCH_TOLERANCE, or when a
# baseline row produced no result (the pipe hides go test's exit status, so
# a failed or deselected benchmark shows up as MISSING).
# See EXPERIMENTS.md "Profiling and benchmark regression".
bench:
	{ \
	  $(GO) test -run='^$$' -bench 'BenchmarkScheduleAndRun|BenchmarkScheduleFireSteady|BenchmarkScheduleCancel|BenchmarkDrainBatch|BenchmarkRearmChains' -benchmem -benchtime=2s ./internal/simtime; \
	  $(GO) test -run='^$$' -bench 'BenchmarkAdvance$$|BenchmarkNextCompletion|BenchmarkPowerAt|BenchmarkAdvanceCompleting|BenchmarkAdvanceSaturated' -benchmem -benchtime=2s ./internal/server; \
	  $(GO) test -run='^$$' -bench 'BenchmarkGenerator' -benchmem -benchtime=2s ./internal/workload; \
	  $(GO) test -run='^$$' -bench 'BenchmarkNormFloat64' -benchmem -benchtime=2s ./internal/rng; \
	  $(GO) test -run='^$$' -bench 'BenchmarkModelPower$$|BenchmarkModelPowerLadder|BenchmarkTablePowerLadder' -benchmem -benchtime=2s ./internal/power; \
	  $(GO) test -run='^$$' -bench 'BenchmarkPercentile' -benchmem -benchtime=2s ./internal/stats; \
	  $(GO) test -run='^$$' -bench 'BenchmarkBusEmit|BenchmarkRecorderRecord|BenchmarkTimelineEmit|BenchmarkWriteChromeTrace' -benchmem -benchtime=2s ./internal/obs; \
	  $(GO) test -run='^$$' -bench 'BenchmarkAnalyze' -benchmem -benchtime=2s ./internal/obs/analyze; \
	  $(GO) test -run='^$$' -bench 'BenchmarkLintLoad' -benchmem -benchtime=5x ./internal/lint; \
	  $(GO) test -run='^$$' -bench 'BenchmarkAllQuick/sequential' -benchmem -benchtime=3x . ; \
	} | $(GO) run ./cmd/benchregress -baseline BENCH_3.json -tolerance $(BENCH_TOLERANCE) -out BENCH_new.json
