GO ?= go

.PHONY: all build vet lint test race fuzz faults serve-smoke serve-cluster regauge-smoke multilevel-smoke bench-orders bench-alloc bench-refine check

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

# Race-detector pass over the packages that spawn goroutines (the virtual
# MPI scheduler, the network simulator, the mapping service's pool/
# cache/snapshot-store, the core mapper's parallel order search, the
# re-gauging control loop and the multilevel refiner) or are read by them
# concurrently (the comm graph's freeze-once adjacency), plus the analysis
# loader's concurrent type-check waves. CI runs this target, so the
# package list lives here only.
race:
	$(GO) test -race ./internal/comm/... ./internal/mpi/... ./internal/netsim/... ./internal/service/... ./internal/core/... ./internal/regauge/... ./internal/multilevel/...
	$(GO) test -race -run TestLoadParallelDeterministic ./internal/analysis

# Native fuzz pass: each fuzz target for 10 s beyond its seed corpus.
# go test accepts -fuzz for one package at a time, so each target gets its
# own call: the heap-driven fill, including its replay of a recorded fill
# on unpinned levels without site sets, against its O(N²) reference scan,
# GeoMapper's price-first order search, which costs only the orders its
# site-pair table price cannot rule out, against a scan that fills and
# prices every order at one, two and three workers,
# the move/swap deltas against full cost recomputation, the matcher's
# phased verdict and repair against Hall's condition, a problem's JSON
# write and read back against the problem bit for bit, the network simulator's
# fault-aware replay and fluid engines at a nil schedule against the
# healthy-network references, the trace compression round trip, the
# /v1/map body decoder against encoding/json, and its float read against
# strconv.ParseFloat.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFillMatchesReference$$' -fuzztime 10s ./internal/multilevel
	$(GO) test -run '^$$' -fuzz '^FuzzDeltasMatchRecomputation$$' -fuzztime 10s ./internal/multilevel
	$(GO) test -run '^$$' -fuzz '^FuzzMatcherMatchesHall$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPricedSearchMatchesScan$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzProblemJSONRoundTrip$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzNilScheduleMatchesReference$$' -fuzztime 10s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzCompressRoundTrip$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequestMatchesStdlib$$' -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzFloatMatchesParseFloat$$' -fuzztime 10s ./internal/service

# Fault-injection smoke: replay LU through the FlakyWAN preset and run the
# failure-aware remap path end to end (internal/faults + netsim faulty
# engines + core.Remap). Must terminate without hangs or leaks.
faults:
	$(GO) run ./cmd/geosim -app LU -n 64 -faults FlakyWAN

# Service smoke: boot geomapd on an ephemeral port, replay the same
# seeded geoload mix twice, and require byte-identical placement
# digests, a fully cache-served warm run, and a clean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Cluster smoke: boot a 3-daemon fleet wired via -peers (each pinned to
# GOMAXPROCS=1), and require byte-identical geoload digests between the
# single-node baseline and the hash-routed and round-robin fleet runs,
# nonzero cross-node peer_hits, >= 2x aggregate throughput on hosts with
# at least 4 cores (reported but unenforced under the single-core
# ceiling), and a clean SIGTERM drain of all three daemons.
serve-cluster:
	./scripts/serve_cluster_smoke.sh

# Re-gauging smoke: boot geomapd with the closed calibration loop live
# against FlakyWAN at a fast timescale, and require at least one
# automatic snapshot publication, at least one hysteresis-suppressed
# remap, and a clean drain that stops the loop.
regauge-smoke:
	./scripts/regauge_smoke.sh

# Multilevel smoke: map a 16-site, 4096-process instance with the
# multilevel pipeline at Workers = 1 and Workers = GOMAXPROCS under a
# wall-clock budget; the run fails unless the two placements are
# byte-identical.
multilevel-smoke:
	./scripts/multilevel_smoke.sh

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

check: build vet lint test race fuzz faults serve-smoke serve-cluster regauge-smoke multilevel-smoke bench-alloc bench-refine
