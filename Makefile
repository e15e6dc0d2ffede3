# Flex — zero-reserved-power datacenters (ISCA 2021 reproduction).

GO ?= go

.PHONY: all build vet lint lint-json test race cover bench bench-solver bench-obs bench-fleet bench-online bench-latency figures fuzz examples replay-smoke slo-smoke fleet-smoke latency-smoke online-smoke ci clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: the interprocedural flexlint suite —
# clock hygiene, context-budget flow, allocation-free hot paths, lock
# ordering, float equality, unit mixing, lock discipline, flight-recorder
# emission discipline, discarded shed-critical errors. See DESIGN.md
# ("Static analysis") and internal/analysis.
lint:
	$(GO) run ./cmd/flexlint ./...

# Same suite, machine-readable findings (what the CI lint job runs).
lint-json:
	$(GO) run ./cmd/flexlint -json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Records a compressed UPS-failure episode with the flight recorder and
# replays it: the replayed planning decisions must match the recorded
# ones exactly (empty diff), or flexreplay exits non-zero.
replay-smoke:
	$(GO) run ./cmd/flexsim -experiment episode -record /tmp/flex-episode.jsonl
	$(GO) run ./cmd/flexreplay -min-plans 1 /tmp/flex-episode.jsonl

# Runs a compressed UPS-failure episode with the continuous safety
# auditor attached and asserts the SLO story end to end: health goes
# ready→degraded→ready (never unsafe), the shed budget burns and
# recovers, and every steady-state what-if probe round is clean.
# flexsim exits non-zero if any of that fails.
slo-smoke:
	$(GO) run ./cmd/flexsim -experiment episode -slo

# Runs the 10-room sharded fleet emulation and asserts the fleet smoke
# criteria: every shard ready in the final snapshot, aggregate stranded
# power equal to the sum of per-room Eq. 5, the failed room shed within
# the 10s budget, zero cross-shard drops. flexsim exits non-zero on any
# violation.
fleet-smoke:
	$(GO) run ./cmd/flexsim -experiment fleet -rooms 10

# Runs the 10-room fleet emulation with latency attribution asserted
# (flexsim -latency): the failed room's overdraw must surface as a
# stitched per-episode waterfall at /fleet/traces whose stage durations
# tile the episode span, the waterfall must reconcile with the measured
# detect→shed latency, every stage p99 must sit inside its carve of the
# 10s budget, and the stage exemplars must resolve to flight-recorder
# events. flexsim exits non-zero on any violation.
latency-smoke:
	$(GO) run ./cmd/flexsim -experiment fleet -rooms 10 -latency

# Runs the online-placement acceptance check (ISSUE 9) on the §V-C
# emulation trace: the online admitter must produce a safe placement
# (zero Eq. 2 / Eq. 4 violations) whose stranded power is within 10
# percentage points of the Flex-Offline optimum. Re-solves run inline, so
# the check is deterministic; flexplace exits non-zero on any violation.
online-smoke:
	$(GO) run ./cmd/flexplace -smoke

# What CI runs (.github/workflows/ci.yml): the full gate plus a race pass
# over the concurrent packages (./internal/obs/... covers obs/tsdb and
# obs/slo; ./internal/fleet covers the shard lifecycle and isolation
# stress; ./internal/placement/online covers the admitter's concurrent
# admit/remove against the background resolver; ./benchmark/ covers the
# 1-vs-W determinism test, whose W workers drive Pump and StepContext over
# the shard ingest rings and telemetry views), a flexmon smoke run with
# the observability surface enabled, the record→replay determinism check,
# the SLO smoke episode, the fleet smoke emulation, and the
# latency-attribution smoke, and the online-placement acceptance smoke.
ci: build vet lint test replay-smoke slo-smoke fleet-smoke latency-smoke online-smoke
	$(GO) test -race ./internal/telemetry/... ./internal/controller/... ./internal/rackmgr/... ./internal/obs/... ./internal/replay/... ./internal/milp/... ./internal/lp/... ./internal/fleet/... ./internal/emu/... ./internal/placement/online/ ./benchmark/
	$(GO) run ./cmd/flexmon -quick -metrics -listen 127.0.0.1:0

cover:
	$(GO) test -cover ./...

# Records a performance baseline: one iteration of every benchmark,
# parsed into benchstat-reconstructable JSON (cmd/benchjson). Compare a
# later run with:
#   go test -run '^$$' -bench . -benchmem -benchtime 1x . > new.txt
#   $(GO) run ./cmd/benchjson -restore BENCH_baseline.json | benchstat /dev/stdin new.txt
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . | $(GO) run ./cmd/benchjson -o BENCH_baseline.json
	@echo wrote BENCH_baseline.json

# Records the solver-scaling baseline (BenchmarkSolverScaling: serial
# reference engine vs 1/2/4/8 frontier workers on the batch-placement
# ILP). Inspect the speedups with:
#   $(GO) run ./cmd/benchjson -speedup BENCH_solver.json
bench-solver:
	$(GO) test -run '^$$' -bench BenchmarkSolverScaling -benchtime 3x . | $(GO) run ./cmd/benchjson -o BENCH_solver.json
	@echo wrote BENCH_solver.json

# Records the observability hot-path baseline: tsdb append/seal/query and
# SLO audit-tick/probe benchmarks across both packages (benchjson tags
# each record with its package). The Append rows must stay at
# 0 allocs/op — the sampler runs on the emulation tick.
bench-obs:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 100x ./internal/obs/tsdb/ ./internal/obs/slo/ | $(GO) run ./cmd/benchjson -o BENCH_obs.json
	@echo wrote BENCH_obs.json

# Records the online-placement baseline (BenchmarkOnlinePlacement):
#   admit        — hot-path decision throughput on the full 9.6MW paper
#                  room; must stay ≥ 1000 decisions/s (the benchmark
#                  itself fails below) at 0 allocs/op.
#   stranded-gap — stranded power of the online policy minus the
#                  FlexOffline optimum on the §V-C trace, in percentage
#                  points (gap-pp); must stay ≤ 10pp.
# Track the quality metrics across changes with either:
#   $(GO) run ./cmd/benchjson -compare BENCH_online.json BENCH_online.new.json
# or the benchstat recipe shared by every bench target:
#   go test -run '^$$' -bench BenchmarkOnlinePlacement -benchmem -benchtime 2000x ./internal/placement/online/ > new.txt
#   $(GO) run ./cmd/benchjson -restore BENCH_online.json | benchstat /dev/stdin new.txt
bench-online:
	$(GO) test -run '^$$' -bench BenchmarkOnlinePlacement -benchmem -benchtime 2000x ./internal/placement/online/ | $(GO) run ./cmd/benchjson -o BENCH_online.json
	@echo wrote BENCH_online.json

# Records the fleet-scaling baseline (BenchmarkFleetDetectToShed: the
# detect→shed latency of a UPS failure with 1/10/100 rooms riding on one
# virtual clock). The shed-s/op column is virtual-clock seconds and must
# stay under the 10s FlexLatencyBudget at every room count — the
# benchmark itself fails otherwise.
bench-fleet:
	$(GO) test -run '^$$' -bench BenchmarkFleetDetectToShed -benchtime 3x ./internal/emu/ | $(GO) run ./cmd/benchjson -o BENCH_fleet.json
	@echo wrote BENCH_fleet.json

# Records the latency-attribution baseline (BenchmarkFleetStageLatency:
# per-stage p50/p99 of the detect→shed critical path, virtual-clock
# seconds, at 1/10/100 rooms). Every stage p99 must stay inside its
# carve of the 10s budget — the benchmark itself fails otherwise. Diff
# two captures (each stamped with its commit and capture time) with:
#   $(GO) run ./cmd/benchjson -compare BENCH_latency.json BENCH_latency.new.json
bench-latency:
	$(GO) test -run '^$$' -bench BenchmarkFleetStageLatency -benchtime 3x ./internal/emu/ | $(GO) run ./cmd/benchjson -o BENCH_latency.json
	@echo wrote BENCH_latency.json

# Regenerates every figure/result of the paper's evaluation.
figures:
	$(GO) test -bench=. -benchmem ./...

fuzz:
	$(GO) test -fuzz=FuzzReadTrace -fuzztime=30s -run=Fuzz .
	$(GO) test -fuzz=FuzzImpactFunction -fuzztime=30s -run=Fuzz .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/capacityplanning
	$(GO) run ./examples/costsavings
	$(GO) run ./examples/yearinthelife
	$(GO) run ./examples/telemetrypipeline
	$(GO) run ./examples/failover

clean:
	$(GO) clean -testcache
