# Development entry points. CI (.github/workflows/ci.yml) runs exactly
# these commands; `make verify` is the full local gate.

GO ?= go

.PHONY: all build lint fma-check lint-fix-check test race perfbench-test fuzz-smoke chaos bench-json bench-json-server bench-json-fleet bench-json-obs obs-smoke obs-trace serve fmt verify

all: build

build:
	$(GO) build ./...

# Static analysis: gofmt over the whole tree (examples/ included), the
# toolchain's vet suite, and dnalint — all eleven repo-invariant analyzers
# (allocguard, clockinject, copydiscipline, ctxprop, determinism,
# errtaxonomy, goroutinebound, registerinit, spanend, statsadd,
# untrustedflow) —
# driven through `go vet -vettool` so it sees the same build graph vet
# does, then the //lint:ignore audit: every suppression must still be
# covering a live finding. Last, fma-check.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build -o bin/dnalint ./cmd/dnalint
	$(GO) vet -vettool=$(CURDIR)/bin/dnalint ./...
	./bin/dnalint -ignores ./...
	$(MAKE) fma-check

# Codec arithmetic must round identically on every architecture: Go fuses
# `a*b + c` into one instruction on arm64 (not on amd64), which changes CTW
# and XM stream probabilities and the modeled WorkNS. Wrapping the product
# in float64(...) forbids the fusion; this cross-builds the daemon for arm64
# and fails on any fused multiply-add left in the codec packages.
fma-check:
	GOARCH=arm64 $(GO) build -o bin/dnacompd-arm64 ./cmd/dnacompd
	@fused="$$($(GO) tool objdump -s 'ctxdna/internal/compress' bin/dnacompd-arm64 | grep -E 'FMADD|FMSUB|FNMADD|FNMSUB')"; \
	if [ -n "$$fused" ]; then echo "fused multiply-add in codec code; wrap the product in float64(...):"; echo "$$fused"; exit 1; fi; \
	echo "fma-check: ok"

# Quick pre-commit pass: just the dnalint suite (standalone driver, no
# toolchain vet) plus the suppression audit — seconds, not minutes.
lint-fix-check:
	$(GO) build -o bin/dnalint ./cmd/dnalint
	./bin/dnalint ./...
	./bin/dnalint -ignores ./...

test:
	$(GO) test ./...

# Every test in the module under the race detector — the armored-frame
# corruption suite, the block-engine BlockSuite and mutants, the fleet and
# the daemon tests included. `make verify` adds only what this run cannot
# show: the -count=2 determinism rerun (chaos) and the process smokes
# (serve, obs-smoke, obs-trace).
race:
	$(GO) test -race ./...

# The benchmark is a module of its own, so `go test ./...` at the root never
# reaches its tests: plan determinism, the metric tables against
# BENCHMARK.json, the routing check and a byte-for-byte workload smoke.
perfbench-test:
	cd perfbench && $(GO) test ./...

# A few seconds per fuzz target: catches shallow decode/cache regressions
# and any drift of the range decoder from its branching reference without a
# long campaign. `go test` accepts one -fuzz pattern per run.
fuzz-smoke:
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzRoundTripAll -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzDecompressAll -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzCacheKey -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzFrameOpen -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzBlockContainerOpen -fuzztime=5s
	$(GO) test ./internal/arith -run='^$$' -fuzz=FuzzDecoderMatchesReference -fuzztime=5s

# Regenerate the per-PR benchmark snapshot (BENCH_<n>.json). Numbers are
# hardware-dependent; commit the snapshot from the PR that changes the
# measured path.
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_6.json

bench-json-server:
	$(GO) run ./cmd/benchjson -suite server -o BENCH_8.json

bench-json-fleet:
	$(GO) run ./cmd/benchjson -suite fleet -o BENCH_9.json

bench-json-obs:
	$(GO) run ./cmd/benchjson -suite obs -o BENCH_10.json

# Serving gate: a deterministic load-generator smoke against a real
# dnacompd process — full outcome accounting, zero failed or mismatched
# requests. (The daemon's own tests run under `make race`.)
serve:
	$(GO) build -o bin/dnacompd ./cmd/dnacompd
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	./bin/dnacompd -loadgen self -requests 24 -conc 6 -seed 2015 > "$$tmp/load.json" || { echo "serve: loadgen smoke failed"; exit 1; }; \
	grep -q '"failed": 0' "$$tmp/load.json" || { echo "serve: loadgen reported failures"; exit 1; }; \
	grep -q '"mismatches": 0' "$$tmp/load.json" || { echo "serve: loadgen reported mismatches"; exit 1; }; \
	echo "serve: ok"

# Determinism rerun: the fault-injection, exchange, backoff and fleet
# chaos tests under -race, run twice in one process to prove the seeded
# fault schedules, retry backoff and shard kills reproduce exactly (same
# seed => byte-identical reports, golden digest included).
chaos:
	$(GO) test ./internal/cloud -race -count=2 -run 'Faulty|Exchange|Backoff|Fleet'

# Observability gate: a tiny grid with metrics + trace export enabled must
# emit well-formed Prometheus text (codec, cache and grid families) and a
# span trace, and — the acceptance criterion — produce a CSV byte-identical
# to the same run without any export flags.
obs-smoke:
	$(GO) build -o bin/experiment ./cmd/experiment
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	./bin/experiment -files 3 -max-kb 4 -jobs 2 -seed 2015 -out "$$tmp/plain.csv" >/dev/null; \
	./bin/experiment -files 3 -max-kb 4 -jobs 2 -seed 2015 -out "$$tmp/obs.csv" \
		-metrics "$$tmp/metrics.prom" -trace "$$tmp/trace.json" >/dev/null; \
	cmp "$$tmp/plain.csv" "$$tmp/obs.csv" || { echo "obs-smoke: CSV changed with observability enabled"; exit 1; }; \
	grep -q '^# TYPE dna_codec_calls_total counter' "$$tmp/metrics.prom" || { echo "obs-smoke: missing codec metrics"; exit 1; }; \
	grep -q '^dna_cache_' "$$tmp/metrics.prom" || { echo "obs-smoke: missing cache metrics"; exit 1; }; \
	grep -q '^dna_grid_tasks_total' "$$tmp/metrics.prom" || { echo "obs-smoke: missing grid metrics"; exit 1; }; \
	grep -q '"name": "experiment.grid"' "$$tmp/trace.json" || { echo "obs-smoke: missing grid span"; exit 1; }; \
	echo "obs-smoke: ok"

# Request-tracing gate: a daemon round-trip through the in-process
# selftest — an inbound traceparent must survive serve -> codec -> fleet
# replica with one trace ID, the flight recorder must replay the request's
# codec/shard/breaker attribution, and /debug/slo must fold a non-empty
# verdict.
obs-trace:
	$(GO) build -o bin/dnacompd ./cmd/dnacompd
	./bin/dnacompd -obs-selftest

fmt:
	gofmt -w .

verify: lint build race perfbench-test chaos obs-smoke obs-trace serve
