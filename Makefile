# Development targets. `make tier1` is the gate every change must pass:
# build, vet, the root, core, spin-lock, derived and simulator packages
# and the explorer's worker test under the race detector, and the full
# suite.

GO ?= go

.PHONY: tier1 build examples vet test race bench bench-baseline bench-check conformance lint threadsvet explore fuzz

tier1: build examples vet race test conformance threadsvet

build:
	$(GO) build ./...

# examples must always compile (go build ./... covers them, but a separate
# target keeps the failure attributable when one rots).
examples:
	$(GO) build ./examples/...

vet:
	$(GO) vet ./...

# threadsvet runs the repo's own static usage-discipline analyzers
# (internal/analysis) over every package; see README "Static analysis".
THREADSVET_FLAGS ?=
threadsvet:
	$(GO) run ./cmd/threadsvet $(THREADSVET_FLAGS) ./...

# The whole explore package is too slow under the race detector; its
# short worker test checks that no two frontier workers share a runner.
race:
	$(GO) test -race . ./internal/core/... ./internal/spinlock/... ./derived/... ./internal/sim/...
	$(GO) test -race -run TestWorkerRunners ./internal/explore

test:
	$(GO) test ./...

# conformance replays linearization-point traces of the real runtime through
# the specification's state machine: the trace/core conformance tests under
# the race detector, then a larger un-instrumented replay via threadscheck.
conformance:
	$(GO) test -race -run 'TestRuntimeConformance|TestClaimRace|TestTraceStamp' ./internal/trace ./internal/core
	$(GO) run ./cmd/threadscheck -runtime -events 300000

# lint gates on formatting and static analysis: gofmt must report nothing,
# go vet and threadsvet must pass, and staticcheck runs when installed (CI
# and dev images without it still get the rest).
lint: threadsvet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped"; \
	fi

# explore is the CI-sized schedule-space sweep: every litmus program,
# all schedules with at most EXPLORE_K preemptions, hard wall-clock cap.
# Failing schedules are written to $(CERT_DIR) as replayable certificates.
# EXPLORE_POR toggles sleep-set reduction, EXPLORE_WORKERS sizes the
# parallel frontier, and a non-empty EXPLORE_STATECACHE names a directory
# of persistent fingerprint snapshots to resume from (the nightly job
# caches it across runs).
EXPLORE_K ?= 1
EXPLORE_BUDGET ?= 90s
EXPLORE_POR ?= sleepsets
EXPLORE_WORKERS ?= $(shell nproc 2>/dev/null || echo 2)
EXPLORE_STATECACHE ?=
CERT_DIR ?= certs
explore:
	$(GO) run ./cmd/threadsim -explore -maxk $(EXPLORE_K) -budget $(EXPLORE_BUDGET) \
		-por $(EXPLORE_POR) -workers $(EXPLORE_WORKERS) \
		$(if $(EXPLORE_STATECACHE),-statecache $(EXPLORE_STATECACHE)) -cert $(CERT_DIR)

# fuzz samples weighted-random schedules beyond the exhaustive bound.
FUZZ_RUNS ?= 2000
fuzz:
	$(GO) run ./cmd/threadsim -fuzz -runs $(FUZZ_RUNS) -cert $(CERT_DIR)

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-baseline regenerates the committed regression baseline, scalar
# metrics and core-count scaling curves alike; run it only when a change
# intentionally moves a metric or curve, and commit the new file.
bench-baseline:
	$(GO) run ./cmd/threadsbench -json BENCH_1.json

# bench-check compares the current build against the committed baseline on
# the machine-independent metrics and the stable curves, at each core count
# from 1 up to NumCPU (add -timed manually for same-machine wall-clock
# comparisons; bench/sweep.sh adds pinning and environment control).
bench-check:
	$(GO) run ./cmd/threadsbench -baseline BENCH_1.json
