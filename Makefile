# Convenience targets for the heteroif reproduction.

GO ?= go

.PHONY: all build test race loc bench bench-smoke prof experiments experiments-full examples vet fmt-check smoke fault collective trace ci clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The oracle and release steps need no forcing: SetWorkers(n>1) always
# starts n-1 real goroutines, so the race detector sees the cross-shard
# paths on any host, and the automatic count's load-driven re-cuts run in
# TestAutoShards and FuzzSimPoint's knee seed. The network set runs again
# on one CPU, where every multi-shard run is oversubscribed and the barrier
# must park, not poll, and where the load never re-cuts an automatic count
# (TestAutoShards checks that it stays on one shard). TestWakeWordLines
# re-cuts through SetWorkers at both settings. TestPointReleasesWorkers
# counts the point's own workers exactly, so it runs ten times.
# CI's race job runs this target as is; -v on the targeted lines keeps one
# log line per test.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=3 -run 'TestWorkersReleased|TestParallel|TestReshardMidRun|TestShardCuts|TestAutoShards|TestWakeWordLines|FuzzRefModel' -v ./internal/network
	GOMAXPROCS=1 $(GO) test -race -run 'TestWorkersReleased|TestParallel|TestReshardMidRun|TestShardCuts|TestAutoShards|TestWakeWordLines|FuzzRefModel' -v ./internal/network
	$(GO) test -race -count=10 -run 'TestPointReleasesWorkers' -v ./internal/experiments
	$(GO) test -race -count=3 -run 'FuzzSimPoint' -v ./internal/experiments

# Non-test Go lines outside bench/ — the figure ROADMAP item 2 asks every
# PR to report in CHANGES.md.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs cat | wc -l

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# End-to-end sweep gate: reduced fig11 across 4 concurrent points, Table 3
# and linkfail, then validate each JSON result manifest (zero failed
# points required).
smoke:
	$(GO) run ./cmd/hetsim -exp fig11 -tiny -jobs 4 -json results-ci
	$(GO) run ./cmd/hetsim -exp table3 -tiny -json results-ci
	$(GO) run ./cmd/hetsim -exp linkfail -tiny -json results-ci
	test -f results-ci/BENCH_fig11.json
	$(GO) run ./cmd/checkmanifest results-ci/BENCH_fig11.json results-ci/BENCH_table3.json results-ci/BENCH_linkfail.json

# Fault-injection gate: reduced BER × policy sweep plus the scripted
# serial-outage scenario (failover must stay live where the serial-only
# baseline starves), then validate the JSON result manifest.
fault:
	$(GO) run ./cmd/hetsim -exp fault -tiny -jobs 2 -json results-ci
	test -f results-ci/BENCH_fault.json
	$(GO) run ./cmd/checkmanifest results-ci/BENCH_fault.json

# Closed-loop collective gate: reduced policy × topology × collective
# sweep (completion-time metrics) plus the serial-outage scenario where
# the collective must complete across the tripped serial PHY, then
# validate the JSON result manifest.
collective:
	$(GO) run ./cmd/hetsim -exp collective -tiny -jobs 2 -json results-ci
	test -f results-ci/BENCH_collective.json
	$(GO) run ./cmd/checkmanifest results-ci/BENCH_collective.json

# Trace-driven gate: reduced fig13 — of CNS and MOC only the head its
# highest target replays is generated, then shared read-only by every
# target's replay jobs through the fast-forwarding RunWith path — then
# validate the JSON result manifest.
trace:
	$(GO) run ./cmd/hetsim -exp fig13 -tiny -jobs 2 -json results-ci
	test -f results-ci/BENCH_fig13.json
	$(GO) run ./cmd/checkmanifest results-ci/BENCH_fig13.json

# Everything .github/workflows/ci.yml runs, locally.
ci: build vet fmt-check test race bench-smoke smoke fault collective trace examples

# The whole-stack ledger (every BENCHMARK.json workload, both passes, into
# the git-ignored bench/out/) followed by every in-package micro-benchmark.
# Whether a change is faster is judged from two such ledgers, built from
# parent and change and run interleaved: go run ./bench -compare A.json B.json.
bench:
	$(GO) run ./bench -o bench/out/ledger.json
	$(GO) test -bench=. -benchmem ./...

# Fast host-independent gate over the kernels: 100 iterations of every
# BenchmarkStep case (they must run, not reach a number), the steady-state
# zero-allocation assertions (idle, saturated one-shard, saturated
# two-shard; mesh, hetero-channel and hetero-PHY; stats Record; collective
# program build), 30 s of the latency-histogram fuzz target, 60 s of the
# engine-against-dense-model fuzz target, 60 s of the simPoint invariant
# fuzz target, one pass of the trace generators' ledger (records/s,
# allocations; the CNS/MOC count passes beside generation) and one of the
# Bernoulli generator's (ns/node-cycle). Each
# fuzz target minimizes a new input for at most 3 s (Go's default is 60 s,
# during which the target runs nothing new). About 3.5 min on 2 vCPUs, most
# of it the 150 s of fuzzing; BenchmarkStep itself takes about 30 s.
bench-smoke:
	$(GO) test -run '^$$' -bench Step -benchtime=100x -benchmem ./internal/network
	$(GO) test -run 'ZeroAllocs|BuildAllocs' ./internal/network ./internal/stats ./internal/collective
	$(GO) test -run '^$$' -fuzz FuzzPercentile -fuzztime 30s -fuzzminimizetime 3s ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzRefModel -fuzztime 60s -fuzzminimizetime 3s ./internal/network
	$(GO) test -run '^$$' -fuzz FuzzSimPoint -fuzztime 60s -fuzzminimizetime 3s ./internal/experiments
	$(GO) test -run '^$$' -bench Generate -benchtime=1x ./internal/trace
	$(GO) test -run '^$$' -bench GeneratorDrive -benchtime=1x ./internal/traffic

# CPU and heap profiles of two saturated kernels: the 256-node mesh — all
# plain delay-1 links, the case the SoA hot-path work targets — and the
# 1024-node hetero-PHY torus, whose chiplets are joined by adapter links
# (cpu_1024/mem_1024); then the in-use heap of the finalized 3,136-node
# build (build_3136: what each structure holds, DESIGN.md "Bytes per
# node"). Profiles and the test binary land in results-ci/prof/; inspect
# with
#   go tool pprof results-ci/prof/network.test results-ci/prof/cpu.prof
#   go tool pprof -sample_index=inuse_space results-ci/prof/network.test results-ci/prof/build_3136.prof
prof:
	mkdir -p results-ci/prof
	$(GO) test -run '^$$' -bench 'Step/saturated/256nodes' -benchtime 2s -benchmem \
		-cpuprofile results-ci/prof/cpu.prof -memprofile results-ci/prof/mem.prof \
		-o results-ci/prof/network.test ./internal/network
	$(GO) test -run '^$$' -bench 'Step/saturated/1024nodes' -benchtime 2s -benchmem \
		-cpuprofile results-ci/prof/cpu_1024.prof -memprofile results-ci/prof/mem_1024.prof \
		-o results-ci/prof/network.test ./internal/network
	$(GO) test -run 'TestBuildFootprint$$' -count=1 -memprofilerate=1 \
		-memprofile results-ci/prof/build_3136.prof -o results-ci/prof/network.test ./internal/network

# CI-scale reproduction of every table and figure, with CSV output.
experiments:
	$(GO) run ./cmd/hetsim -exp all -csv results

# Paper-scale systems and windows (hours; use -workers on multicore hosts).
experiments-full:
	$(GO) run ./cmd/hetsim -exp all -full -csv results-full

# Run every public-API demo: go build only compiles them, this catches a
# runtime panic.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/allreduce
	$(GO) run ./examples/chiplet_reuse
	$(GO) run ./examples/datacenter_mixed
	$(GO) run ./examples/energy_tuning

clean:
	rm -rf results results-full results-ci test_output.txt bench_output.txt
