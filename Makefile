GO ?= go

.PHONY: check ci cover fmt fmt-check lint vet build test test-short test-race test-race-short alloc-guard fuzz-short e2e-dispatch bench-smoke bench-module-test loc bench serve

check: fmt-check vet lint build test-short

# ci is the full pre-merge gate: formatting, vet, the project-invariant
# lint suite (before the test stages, so invariant breaks fail fast),
# the short suite, the short suite under the race detector, the
# allocation guards (the zero-alloc kernels and train/eval steps, the
# device step under concurrent devices, plus the whole-run allocation
# budgets), the wire-codec fuzz smoke, the
# dispatch e2e suite under -race, the benchmark's end-to-end smoke over
# the real binaries, the benchmark module's own vet and unit tests, and
# the coverage report with its floor.
ci: fmt-check vet lint test-short test-race-short alloc-guard fuzz-short e2e-dispatch bench-smoke bench-module-test cover

# lint runs hadfl-lint, the repo's own analyzer suite (internal/lint):
# detmap, walltime, metriccatalog, ctxbg — the determinism, context,
# and telemetry contracts as machine-checked gates. See
# DESIGN.md "Static analysis"; suppress a finding at the site with
# `//lint:ignore <analyzer> <reason>`.
lint:
	$(GO) run ./cmd/hadfl-lint ./...

# COVER_FLOOR is the minimum total statement coverage (percent) the
# short suite must keep; make ci fails below it instead of letting
# coverage drift silently. Current total is ~77.7%.
COVER_FLOOR ?= 75.0

# cover runs the short suite with coverage, prints the total, and
# enforces COVER_FLOOR; coverage.out is left behind for
# `go tool cover -html=coverage.out`.
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$NF}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { if (t+0 < f+0) { print "coverage " t "% is below the " f "% floor"; exit 1 } }'

# fuzz-short runs each p2p wire-codec fuzz target for a few seconds —
# not a soak, a smoke: decoder panics and round-trip breaks on easy
# inputs fail the gate. (go's -fuzz takes one target per invocation.)
FUZZTIME ?= 5s
fuzz-short:
	$(GO) test ./internal/p2p -run '^$$' -fuzz 'FuzzUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/p2p -run '^$$' -fuzz 'FuzzDispatchBody$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/p2p -run '^$$' -fuzz 'FuzzUnpackBytes$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/p2p -run '^$$' -fuzz 'FuzzChunkReassembly$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/p2p -run '^$$' -fuzz 'FuzzCodecDecode$$' -fuzztime $(FUZZTIME)

# e2e-dispatch is the remote-execution acceptance gate: the simnet
# end-to-end suite (byte-identical dispatched results, cancel and
# worker-crash fault injection, heartbeat loss, local fallback) under
# the race detector. -short trims the saturation and full-registry
# sweeps; `go test ./internal/serve/dispatch` runs everything.
e2e-dispatch:
	$(GO) test -race -short ./internal/serve/dispatch

# alloc-guard pins the hot-path allocation contracts explicitly (they
# also run inside test-short; this target is the named gate so a perf
# regression fails loudly on its own line).
alloc-guard:
	$(GO) test -run 'ZeroAlloc' ./internal/tensor ./internal/nn ./internal/device ./internal/eval ./internal/serve
	$(GO) test -run 'TestRunAllocationBudget' .

# bench-smoke is the end-to-end gate inside make ci: the benchmark
# module's TestQuickSmoke builds the real hadfl-serve and hadfl-worker
# binaries, runs all four BENCHMARK.json workloads plus a traced run on
# a short budget, and fails unless every workload is correct with 0
# failed operations, 0 golden mismatches, and the traced dispatch run's
# per-layer timings reconcile with its end-to-end ones. The full
# measurement is `bash benchmark/run.sh` (see benchmark/README.md).
bench-smoke:
	$(GO) test -C benchmark -run TestQuickSmoke -count=1 ./...

# bench-module-test gates the nested benchmark module (benchmark/ has
# its own go.mod, so the root ./... never reaches it): vet plus its
# unit tests. -short skips its smoke run of all four workloads; that
# is bench-smoke.
bench-module-test:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark -short ./...

# loc prints non-test Go lines per package (ROADMAP aim 2: net LOC per
# package is a tracked quantity); paste before/after in a PR that
# claims to simplify.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		printf '%6d  %s\n' $$(cat $$(ls $$dir/*.go | grep -v _test.go) | wc -l) $$pkg; \
	done | awk '{print; t += $$1} END {printf "%6d  total\n", t}'

fmt: fmt-check

# -s also demands the simplified forms (x[a:len(x)] → x[a:], redundant
# composite-literal types, ...), so simplifiable code fails the gate.
fmt-check:
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test-short:
	$(GO) test -short ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# test-race runs the fixed-seed parallel-determinism contract and the
# golden runs under the race detector, plus every package that starts
# goroutines around models:
# the round loop, asyncfl's compute workers, the evaluator's replicas.
test-race:
	$(GO) test -race -run 'TestParallelDeterminism|TestGoldenRuns' .
	$(GO) test -race ./internal/tensor ./internal/device ./internal/eval ./internal/core ./internal/baselines

# test-race-short is the race-detector slice of make ci: the
# determinism contract, the golden runs at Parallelism 4 (every
# scheme's concurrent join in core.Loop.Train) plus the
# concurrency-heavy packages, with slow tests skipped.
test-race-short:
	$(GO) test -race -short -run 'TestParallelDeterminism|TestGoldenRuns|TestRunContext|TestCompareContext' .
	$(GO) test -race -short ./internal/tensor ./internal/device ./internal/eval ./internal/core ./internal/baselines ./internal/serve

serve:
	$(GO) run ./cmd/hadfl-serve -addr :8080
