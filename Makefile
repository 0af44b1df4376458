# Pre-merge checks for the MESA reproduction.
#
#   make ci          # everything a PR must pass: fmt + vet + lint + test + test-race +
#                    # bench-module + examples + fuzz-smoke + mesad-smoke + bench-check +
#                    # bench-mappers
#   make fmt         # every Go file is gofmt-clean (lists the offenders)
#   make bench-module # vet + test (plain and -race) the benchmark harness in bench/ (its own Go module)
#   make lint        # staticcheck (pinned version; skipped with a notice when unavailable offline)
#   make test        # tier-1: go build + go test
#   make test-race   # the sweep fan-out must be race-clean
#   make examples    # run every examples/* program (each verifies its own outputs)
#   make fuzz-smoke  # 10s of each Go fuzz target (differential, FP spec, ISA round-trip, disassembly round-trip, mesad request decode)
#   make mesad-smoke # mesad end-to-end self-test: serve, load-generate, scrape /metrics
#   make bench       # run every package's Go benchmarks once with -benchmem (allocation counts)
#   make bench-json  # write the current performance snapshot to BENCH.json
#   make bench-check # regression-gate the snapshot against BENCH_baseline.json
#   make bench-attrib# write the suite-wide bottleneck attribution to ATTRIB.json
#   make bench-mappers # run the mapper-strategy ablation (greedy/anneal/
#                    # congestion/modulo/auto) and write MAPPERS.json
#
# When a PR intentionally changes performance, refresh the committed
# baseline with `make bench-baseline` and include the diff in the PR.

GO ?= go
# Every baseline metric is a deterministic simulation output, so the gate
# demands exact reproduction; a deliberate change refreshes the baseline.
BENCH_TOL ?= 0
# Pinned so every machine lints with the same rule set; bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: ci fmt build vet lint test test-race examples fuzz-smoke mesad-smoke bench bench-module bench-json bench-check bench-baseline bench-attrib bench-mappers

ci: fmt vet lint test test-race bench-module examples fuzz-smoke mesad-smoke bench-check bench-mappers

# Prefer a staticcheck already on PATH (matching any version is better than
# nothing), else fetch the pinned version via `go run`. Offline sandboxes
# have neither; skip with a notice rather than failing the whole gate on a
# network error.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "lint: staticcheck unavailable (offline?); skipping"; \
	fi

# gofmt is the one formatting rule; fail listing every file it would change.
fmt:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "fmt: gofmt -l reports:"; echo "$$files"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# bench/ is its own Go module (the repository benchmark), so the root
# `go test ./...` and `go test -race ./...` never compile it; it imports
# internal packages, so API changes must keep it building and race-clean.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./... && $(GO) test -race ./...

# The library examples verify their outputs with seeds 1, 7 and 9, which no
# sweep uses; `go test` only compiles them, so run each one. Their stdout is
# dropped; a failure exits non-zero with its message on stderr.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# Bounded runs of every native fuzz target. The committed corpora replay in
# plain `make test`; this additionally explores new inputs for a few seconds
# per target, which is enough to catch gross regressions in the differential
# harness itself without making CI wall time unpredictable.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/alu -run '^$$' -fuzz '^FuzzFPSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/isa -run '^$$' -fuzz '^FuzzDecodeEncode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asm -run '^$$' -fuzz '^FuzzDisassemblyReassembles$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/genkern -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzSimulateRequest$$' -fuzztime $(FUZZTIME)

# End-to-end self-test of the mesad service binary: serve on a loopback
# port, run the load generator cold and warm (every response byte-compared
# against the direct library call), scrape /metrics as JSON and as a
# Prometheus exposition (validated line by line with the strict parser),
# check /healthz and /debug/requests, write one flight-recorder trace to
# mesad-trace.json (a CI artifact), drain, exit.
mesad-smoke:
	$(GO) run ./cmd/mesad -smoke -smoke-trace mesad-trace.json

bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./...

bench-json:
	$(GO) run ./cmd/mesabench -out BENCH.json

bench-check:
	$(GO) run ./cmd/mesabench -check BENCH_baseline.json -tol $(BENCH_TOL) -out BENCH.json

bench-baseline:
	$(GO) run ./cmd/mesabench -out BENCH_baseline.json

bench-attrib:
	$(GO) run ./cmd/mesabench -json attrib > ATTRIB.json

# The extended mapper-strategy ablation (greedy seed, annealing, congestion,
# modulo scheduling, attribution-driven auto selection) as structured JSON.
# MAPPERS.json is a CI artifact; the rendered table is in `mesabench mappers`.
bench-mappers:
	$(GO) run ./cmd/mesabench -json mappers > MAPPERS.json
