# Development entry points. CI (.github/workflows/ci.yml) runs exactly
# these commands; `make verify` is the full local gate.

GO ?= go

.PHONY: all build lint fma-check lint-fix-check test race perfbench-test fuzz-smoke chaos corruption blocks bench-json obs-smoke obs-trace serve fleet fmt verify

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

race:
	$(GO) test -race ./...

# The benchmark is a module of its own, so `go test ./...` at the root never
# reaches its tests: plan determinism, the metric tables against
# BENCHMARK.json, the routing check and a byte-for-byte workload smoke.
perfbench-test:
	cd perfbench && $(GO) test ./...

# A few seconds per fuzz target: catches shallow decode/cache regressions
# without a long campaign. `go test` accepts one -fuzz pattern per run.
fuzz-smoke:
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzRoundTripAll -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzDecompressAll -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzCacheKey -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzFrameOpen -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzBlockContainerOpen -fuzztime=5s

# Hardened-decode gate: the armored-frame corruption suite (truncation,
# bit flips, extension, header tampering against all registered codecs),
# the promoted fuzz seeds, and the frame-checksum exchange tests, under
# the race detector.
corruption:
	$(GO) test ./internal/compress/... -race -run 'Corruption|NeverPanics|SafeDecompress|Frame|Seal|Open'
	$(GO) test ./internal/cloud -race -run 'ExchangeDetectsCorruption|ExchangeBlobIsArmoredFrame'

# Block-engine gate: the property-based BlockSuite (round-trip at block
# boundaries, 1k-probe seek equivalence, jobs determinism, block-vs-whole
# differential) and the multi-block corruption mutants across all
# registered codecs, plus the hostile-header, cache-aliasing, block
# exchange and block CLI tests — all under the race detector.
blocks:
	$(GO) test ./internal/compress/... -race -run 'Block'
	$(GO) test ./internal/cloud -race -run 'ExchangeBlocks'
	$(GO) test ./cmd/dnacomp -race -run 'Block'

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

# Serving gate: the daemon and debug-server tests under the race detector
# (admission control, graceful drain, reader contracts, expvar remount,
# synchronous pprof bind), then a deterministic load-generator smoke
# against a real dnacompd process — full outcome accounting, zero failed
# or mismatched requests.
serve:
	$(GO) test ./internal/serve ./internal/obs ./cmd/dnacompd -race
	$(GO) build -o bin/dnacompd ./cmd/dnacompd
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	./bin/dnacompd -loadgen self -requests 24 -conc 6 -seed 2015 > "$$tmp/load.json" || { echo "serve: loadgen smoke failed"; exit 1; }; \
	grep -q '"failed": 0' "$$tmp/load.json" || { echo "serve: loadgen reported failures"; exit 1; }; \
	grep -q '"mismatches": 0' "$$tmp/load.json" || { echo "serve: loadgen reported mismatches"; exit 1; }; \
	echo "serve: ok"

# Chaos gate: the fault-injection and exchange tests under -race, run
# twice to prove the seeded fault schedules and retry backoff reproduce
# exactly (same seed => byte-identical reports).
chaos:
	$(GO) test ./internal/cloud -race -count=2 -run 'Faulty|Exchange|Backoff'

# Fleet gate: the sharded-store fleet under -race — ring placement,
# replication and quorums, breaker state machine, degraded-error
# attribution, and the fleet chaos suite run twice to prove the seeded
# shard kills reproduce byte-identical exchange reports; then the serve
# layer's fleet-backed store, Retry-After backpressure contract and the
# drain goroutine-leak check while a shard flaps.
fleet:
	$(GO) test ./internal/cloud -race -count=2 -run 'Fleet'
	$(GO) test ./internal/serve -race -run 'Fleet|RetryAfter|Drain'

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

verify: lint build race perfbench-test chaos corruption blocks fleet obs-smoke obs-trace serve
