GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race vet lint bench bench-parallel bench-sampling metrics-smoke stream-smoke static-smoke par-smoke perf-smoke server-smoke chan-smoke go-smoke sample-smoke fuzz fuzz-smoke soak coverage clean

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static checks over the Go sources: vet always, staticcheck when it is on
# PATH (CI installs it; locally `go install honnef.co/go/tools/cmd/staticcheck@latest`).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# One quick Table 1 regeneration; BENCH_table1.json lands in the repo root.
bench:
	$(GO) run ./cmd/vft-bench -quick -iters 3

# The sequential-vs-sharded checking comparison (EXPERIMENTS.md E17);
# BENCH_parallel.json lands in the repo root. Drop -quick to reproduce the
# committed numbers at the paper-scale trace sizes.
bench-parallel:
	$(GO) run ./cmd/vft-bench -parallel 1,2,4,8 -quick -iters 3

# The sampling-tier overhead-vs-recall sweep (EXPERIMENTS.md E22);
# BENCH_sampling.json lands in the repo root. Drop -quick to reproduce the
# committed numbers. Exits nonzero if any rate violates the soundness
# gates (subset below 1.0, identity at 1.0).
bench-sampling:
	$(GO) run ./cmd/vft-bench -sampling -quick -iters 3

# End-to-end check of the live metrics endpoint: runs vft-bench with
# -metrics-addr and scrapes /metrics + /debug/vars while it serves.
metrics-smoke:
	$(GO) run ./scripts/metrics-smoke

# End-to-end check of streaming ingestion: pipes gzipped binary traces
# into `vft-run -` over stdin and verifies the verdict exit codes.
stream-smoke:
	$(GO) run ./scripts/stream-smoke

# End-to-end check of the static race analyzer: vft-lint over every
# shipped example, verifying exit codes, warning positions and -json.
static-smoke:
	$(GO) run ./scripts/static-smoke

# End-to-end check of the parallel checker under the Go race detector:
# a ~100k-op generated trace must produce byte-identical report lists
# sequentially and with WithParallelism(4), for every detector variant.
par-smoke:
	$(GO) run -race ./scripts/par-smoke

# End-to-end check of the clock layer: fast-path latency/allocs micro
# cells plus quick montecarlo/pmd offline arms, sequential and parallel,
# failing on any report divergence or fast-path allocation; the perf
# numbers are logged, not gated. A racy generated trace and the
# conformance corpus cross-check sequential ≡ sharded byte-identity for
# every variant.
perf-smoke:
	$(GO) run ./scripts/perf-smoke
	$(GO) test -run TestConformanceParallelIdentity -count=1 .
	$(GO) test -bench 'BenchmarkFastPathLatency/.*/vft-v2$$' -benchtime 10000x -run xxx .

# End-to-end check of the multi-tenant ingestion service under the Go
# race detector: concurrent tenants streaming all three wire encodings
# must read back reports byte-identical to offline CheckTrace, saturation
# must answer 429 + Retry-After, and a drain/save/restart cycle must
# preserve every tenant's reports.
server-smoke:
	$(GO) run -race ./scripts/server-smoke

# End-to-end check of trace format v2's Go-synchronization kinds: two
# channel-heavy traces round-trip text -> binary-v2 -> vft-run -parallel
# -> vft-server upload, each leg's reports diffed against an offline
# CheckTrace with the same channel capacities.
chan-smoke:
	$(GO) run -race ./scripts/chan-smoke

# End-to-end check of the vft-go front-end over the real-Go corpus:
# every racy program must name its racy variable, every clean program
# must be silent, elide-on and elide-off canonical reports must be
# byte-identical, and elision must fire on at least half the corpus.
go-smoke:
	$(GO) run ./scripts/go-smoke -v

# End-to-end check of the sampling tier under the Go race detector: a
# rate sweep over a generated trace plus the conformance corpus, failing
# on any soundness violation (sampled reports must equal the precise
# reports filtered to sampled variables) or any rate-1.0 divergence.
sample-smoke:
	$(GO) run -race ./scripts/sample-smoke

# The differential fuzzers: the sequential trace fuzzer, the controlled
# schedule explorer, then a bounded run of each coverage-guided target.
fuzz:
	$(GO) run ./cmd/vft-fuzz -n 2000
	$(GO) run ./cmd/vft-fuzz -n 2000 -gosync
	$(GO) run ./cmd/vft-fuzz -n 200 -schedules 25
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzFromBytes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzBinaryRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/minilang -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/spec -run '^$$' -fuzz FuzzPrecision -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticrace -run '^$$' -fuzz FuzzStaticNoPanic -fuzztime $(FUZZTIME)
	$(GO) test ./internal/parcheck -run '^$$' -fuzz FuzzParallelEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzIngestHTTP -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzSamplingSoundness -fuzztime $(FUZZTIME)

# Quick pass over every coverage-guided target's checked-in seed corpus
# (no fuzzing time budget — just the deterministic seeds, as CI does).
fuzz-smoke:
	$(GO) test ./internal/trace -run 'Fuzz' -count 1
	$(GO) test ./internal/minilang -run 'FuzzParse' -count 1
	$(GO) test ./internal/spec -run 'FuzzPrecision' -count 1
	$(GO) test ./internal/staticrace -run 'FuzzStaticNoPanic' -count 1
	$(GO) test ./internal/parcheck -run 'FuzzParallelEquivalence' -count 1
	$(GO) test ./internal/ingest -run 'FuzzIngestHTTP' -count 1
	$(GO) test . -run 'FuzzSamplingSoundness' -count 1

# Long-running schedule exploration (hundreds of schedules per program).
soak:
	VFT_SOAK=1 $(GO) test ./internal/conformance -timeout 60m -count 1 -v

coverage:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

clean:
	rm -f coverage.out BENCH_table1.json BENCH_parallel.json
