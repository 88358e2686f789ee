GO ?= go

.PHONY: all build vet lint test perfbench-test race fuzz faults serve-smoke serve-cluster regauge-smoke multilevel-smoke bench-orders bench-alloc bench-refine check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (internal/analysis via cmd/geolint), with
# go vet and a gofmt check alongside. Exits non-zero on any unformatted
# file, and on any finding not suppressed by a justified //geolint:ignore
# directive; -staleignores also fails on directives that no longer
# suppress anything. The _perfbench module is vetted too: it calls two
# functions that carry a deadcode ignore, so deleting either breaks this
# target.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) -C _perfbench vet ./...
	$(GO) run ./cmd/geolint -staleignores ./...

test:
	$(GO) test ./...

# The benchmark module's own tests (_perfbench is a module of its own, so
# `go test ./...` skips it). TestSmokeEveryWorkload runs every workload
# briefly and checks its answers, so a change that breaks the benchmark
# at run time fails here.
perfbench-test:
	$(GO) -C _perfbench test ./...

# Race-detector pass over the packages that spawn goroutines (the virtual
# MPI scheduler, the network simulator, the mapping service's pool/
# cache/snapshot-store, the core mapper's parallel order search, the
# re-gauging control loop, the multilevel refiner, and the daemon gates'
# in-process geomapd fleet and re-gauging loop) or are read by them
# concurrently (the comm graph's freeze-once adjacency, and the scratch
# pools of comm, multilevel and core, which TestSolvesIgnoreRecycledScratch
# drives from two goroutines), plus the analysis loader's concurrent
# type-check waves. CI runs this target, so the
# package list lives here only.
race:
	$(GO) test -race ./internal/comm/... ./internal/mpi/... ./internal/netsim/... ./internal/service/... ./internal/core/... ./internal/regauge/... ./internal/multilevel/... ./cmd/geomapd/...
	$(GO) test -race -run TestLoadParallelDeterministic ./internal/analysis

# Native fuzz pass: each fuzz target for 10 s beyond its seed corpus.
# go test accepts -fuzz for one package at a time, so each target gets its
# own call (TestMakefileFuzzesEveryTarget fails when a Fuzz function of
# the module is missing here, or a name here has no function): the
# heap-driven fill, walked by key class as the order search walks it
# (Fill.Run on each class's first order, Fill.Replay on the others), on
# one recycled Fill across instances of different shapes, against its
# O(N²) reference scan,
# GeoMapper's order search, which fills each key class of orders once
# and costs only the orders its site-pair table price cannot rule out,
# against a scan that fills and prices every order at one, two and three
# workers, on problems with several keys or with pins (one order per
# class),
# the move/swap deltas against full cost recomputation, the matcher's
# phased verdict and repair against Hall's condition, a problem's JSON
# write and read back against the problem bit for bit, the comm graph's
# folded call log against an unfolded one and a per-pair left fold, the
# network simulator's fault-aware replay and fluid engines at a nil
# schedule against the healthy-network references, the trace compression round trip, the
# /v1/map body decoder against encoding/json, its float read against
# strconv.ParseFloat, and the packed form of a cached request's edge
# list, read back bit for bit.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFillMatchesReference$$' -fuzztime 10s ./internal/multilevel
	$(GO) test -run '^$$' -fuzz '^FuzzDeltasMatchRecomputation$$' -fuzztime 10s ./internal/multilevel
	$(GO) test -run '^$$' -fuzz '^FuzzMatcherMatchesHall$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPricedSearchMatchesScan$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzProblemJSONRoundTrip$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFoldMatchesUnfolded$$' -fuzztime 10s ./internal/comm
	$(GO) test -run '^$$' -fuzz '^FuzzNilScheduleMatchesReference$$' -fuzztime 10s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzCompressRoundTrip$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequestMatchesStdlib$$' -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzFloatMatchesParseFloat$$' -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzPackEdgesRoundTrip$$' -fuzztime 10s ./internal/service

# Fault-injection smoke: replay LU through the FlakyWAN preset and run the
# failure-aware remap path end to end (internal/faults + netsim faulty
# engines + core.Remap). Must terminate without hangs or leaks.
faults:
	$(GO) run ./cmd/geosim -app LU -n 64 -faults FlakyWAN

# The daemon gates are Go tests in cmd/geomapd. Each builds geomapd from
# its command line with the constructor main uses, serves it in-process
# on a loopback listener bound first, and drives it with internal/loadgen,
# the request stream, routing and digest fold geoload runs. They also run
# in `go test ./...` and, through the race target, under -race.

# Service gate: one daemon answers the same seed-7 stream twice with the
# pinned combined placement digest, the second run wholly from its result
# cache, and drains cleanly; a spawned geomapd process must drain and
# exit 0 on SIGTERM.
serve-smoke:
	$(GO) test -count=1 -run '^(TestServeSmoke|TestSIGTERMDrains)$$' ./cmd/geomapd

# Cluster gate: one seeded stream folds to the pinned digest against a
# single daemon and against a 3-daemon -peers fleet under hash and
# round-robin routing. Hash routing must forward nothing and solve each
# key once, on its owner; round-robin must produce peer hits. Every
# daemon drains cleanly. Throughput is logged, never gated.
serve-cluster:
	$(GO) test -count=1 -run '^TestServeCluster$$' ./cmd/geomapd

# Re-gauging gate: with the closed calibration loop live against FlakyWAN
# at timescale 60, the loop must publish at least one snapshot and
# suppress at least one remap by hysteresis within 60 s, show in
# /healthz, and stop at drain.
regauge-smoke:
	$(GO) test -count=1 -run '^TestRegaugeSmoke$$' ./cmd/geomapd

# Multilevel gate: the mlsmoke experiment maps a 16-site, 4096-process
# instance at Workers = 1 and max(2, GOMAXPROCS); both placements must
# match the pinned cost bits and placement digest, within a 120 s budget.
# It writes no file.
multilevel-smoke:
	$(GO) test -count=1 -timeout 120s -run '^TestMultilevelSmoke$$' ./internal/experiments

# Serial-vs-parallel order-search baseline: full-scale sweep (κ = 6..8,
# N = 64/256) written to results/BENCH_orders.json. Speedup depends on
# host core count, which the report records.
bench-orders:
	$(GO) run ./cmd/geobench -exp orders -out results -json
	cp results/orders.json results/BENCH_orders.json

# Zero-allocation gate: the BenchmarkAlloc* family measures every
# //geolint:allocfree hot path with -benchmem and fails on any nonzero
# allocs/op (the dynamic counterpart of the static allocsafe rule).
# Measurements land in results/BENCH_alloc.json; ns/op is informational.
bench-alloc:
	./scripts/bench_zero_alloc.sh bench-alloc '^BenchmarkAlloc' results/BENCH_alloc.json \
		./internal/core ./internal/comm ./internal/stats ./internal/netsim ./internal/multilevel ./internal/service

# Refinement ns/move baseline: the BenchmarkRefineMove* family measures
# the multilevel local-search hot path (move/swap deltas, candidate scan,
# full proposal sweep) and fails on any nonzero allocs/op. Measurements
# land in results/BENCH_refine.json.
bench-refine:
	./scripts/bench_zero_alloc.sh bench-refine '^BenchmarkRefineMove' results/BENCH_refine.json \
		./internal/multilevel

check: build vet lint test perfbench-test race fuzz faults serve-smoke serve-cluster regauge-smoke multilevel-smoke bench-alloc bench-refine
