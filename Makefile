# Development entry points. CI (.github/workflows/ci.yml) runs exactly
# these commands; `make verify` is the full local gate.

GO ?= go

.PHONY: all build lint fma-check lint-fix-check test race perfbench-test bench-smoke fuzz-smoke chaos serve fmt verify

all: build

build:
	$(GO) build ./...

# Static analysis: gofmt over the whole tree (examples/ included), the
# toolchain's vet suite, then lint-fix-check (dnalint and its
# //lint:ignore audit) and fma-check.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(MAKE) lint-fix-check
	$(MAKE) fma-check

# Arithmetic must round identically on every architecture: Go fuses
# `a*b + c` into one instruction on arm64 (not on amd64), which changes CTW
# and XM stream probabilities, the modeled WorkNS, the cloud cost model and
# so every Eq. 1 label, the trees, loadgen reports and generated corpora.
# Wrapping the product in float64(...) forbids the fusion; this
# cross-builds the daemon and the experiment binary for arm64 and fails on
# any fused multiply-add left in a function of this module, naming the
# function and the line.
fma-check:
	GOARCH=arm64 $(GO) build -o bin/dnacompd-arm64 ./cmd/dnacompd
	GOARCH=arm64 $(GO) build -o bin/experiment-arm64 ./cmd/experiment
	@fused="$$(for b in dnacompd experiment; do $(GO) tool objdump -s 'srl-nuces/ctxdna/' bin/$$b-arm64; done | \
		awk '/^TEXT/ { fn = $$2 } /FMADD|FMSUB|FNMADD|FNMSUB/ { print fn, $$1 }')"; \
	if [ -n "$$fused" ]; then echo "fused multiply-add in repo code; wrap the product in float64(...):"; echo "$$fused"; exit 1; fi; \
	echo "fma-check: ok"

# dnalint: all eleven repo-invariant analyzers (allocguard, clockinject,
# copydiscipline, ctxprop, determinism, errtaxonomy, goroutinebound,
# registerinit, spanend, statsadd, untrustedflow) over every package
# under the root, the nested perfbench module included, which `go vet
# ./...` never reaches; then the //lint:ignore audit: every suppression
# must still be covering a live finding. Seconds, not minutes, so it is
# also the quick pre-commit pass.
lint-fix-check:
	$(GO) build -o bin/dnalint ./cmd/dnalint
	./bin/dnalint ./...
	./bin/dnalint -ignores ./...

test:
	$(GO) test ./...

# Every test in the module under the race detector — the armored-frame
# corruption suite, the block-engine BlockSuite and mutants, the fleet and
# the daemon tests included, and so are the observability checks: trace
# continuity into a fleet replica, recorder attribution, the SLO verdict,
# and the experiment binary's -metrics/-trace export leaving its CSV
# byte-identical. Then four stress tests ten times over: the decoded-block
# cache's, goroutines slicing shared readers through one small, constantly
# evicting cache, each window checked against a plain decode; CTW's
# pooled arenas, goroutines compressing and decompressing at depths 2, 16
# and 30 plus a hostile depth-30 frame through pooled trees, whose node
# and child-link arrays must stay in step, each result checked against a
# sequential run; the daemon's range reads racing overwrites of their
# container with different content, each window checked to be one
# version's; and the fleet's kept envelopes, goroutines overwriting,
# deleting and reading (whole, ranged, pinned) a few blobs on FaultyStore
# shards whose replicas keep the one envelope each write sealed, each read
# checked to be one payload or its window. `make verify`
# adds only what these runs cannot show: the -count=2 determinism rerun
# (chaos), the serve process smoke and one run of every codec-layer
# benchmark and of the root reproduction harness (bench-smoke).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'BlockCacheConcurrentSlices' ./internal/compress
	$(GO) test -race -count=10 -run 'PooledArenasConcurrent' ./internal/compress/ctw
	$(GO) test -race -count=10 -run 'RangeReadsRaceOverwrites' ./internal/serve
	$(GO) test -race -count=10 -run 'KeptEnvelopesConcurrent' ./internal/cloud

# The benchmark is a module of its own, so `go test ./...` at the root never
# reaches its tests: plan determinism, the metric tables against
# BENCHMARK.json, the routing check and a byte-for-byte workload smoke.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Every benchmark of the range coder, the matcher, the codecs and the
# cloud exchange, run once (-benchtime 1x), so that the benchmarks paired
# parent/change runs rely on keep building and running: dnax's
# ExchangeBlocks and CTW's PaperSmall two-worker benchmarks among them, and
# cloud's ExchangeBlocks, one 1 MiB exchange through an in-memory fleet
# with its B/op, and FleetPut, one 1 MiB write to 3 replicas, whose B/op is
# the one envelope they keep. Then the root reproduction harness
# (bench_test.go) once: its Figure 2-6 benchmarks read the one figure
# computation the figures binary prints (experiment's SummarizeByCodec and
# MeanBitsPerBase), beside its Table 2, grid-build, block-engine,
# ablation and codec-metrics (ObserveCompress) benchmarks. It times
# nothing worth reading.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/arith ./internal/match ./internal/compress/... ./internal/cloud
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# A few seconds per fuzz target: catches shallow decode/cache regressions
# (FuzzBlockContainerOpen covers CXB1 containers and, as their one-block
# case, single CXA1 frames; FuzzBlockIndexOpen the header-and-index open a
# range read starts with, on any prefix and declared size, and every whole
# container with its frames attached one block at a time), any
# repeat-token list that a repeat codec
# decodes other than a plain interpreter does (FuzzRepeatTokens), any
# drift of the range decoder or its literal
# runs from the branching reference, any matcher scan that stops anywhere
# but where a per-position parse would first walk a chain, any daemon query that slips a bad range or context
# past its parser, any body that Cleanse turns into bad symbols or stats,
# writes to, or cleanses differently in place,
# any traceparent header that parses to malformed IDs, any replica
# envelope that opens to a payload other than its suffix and any model
# file that loads into a tree whose Predict panics or answers a class out
# of range, without a long campaign. `go test` accepts one -fuzz pattern
# per run.
fuzz-smoke:
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzRoundTripAll -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzDecompressAll -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzCacheKey -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzFrameOpen -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzBlockContainerOpen -fuzztime=5s
	$(GO) test ./internal/compress -run='^$$' -fuzz=FuzzBlockIndexOpen -fuzztime=5s
	$(GO) test ./internal/compress/token -run='^$$' -fuzz=FuzzRepeatTokens -fuzztime=5s
	$(GO) test ./internal/arith -run='^$$' -fuzz=FuzzDecoderMatchesReference -fuzztime=5s
	$(GO) test ./internal/match -run='^$$' -fuzz=FuzzNextCandidate -fuzztime=5s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzRequestParams -fuzztime=5s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzCleanse -fuzztime=5s
	$(GO) test ./internal/obs -run='^$$' -fuzz=FuzzParseTraceparent -fuzztime=5s
	$(GO) test ./internal/cloud -run='^$$' -fuzz=FuzzOpenVersion -fuzztime=5s
	$(GO) test ./internal/dtree -run='^$$' -fuzz=FuzzModelJSON -fuzztime=5s

# Serving gate: a deterministic load-generator smoke against a real
# dnacompd process — full outcome accounting, zero failed or mismatched
# requests. Started without -model, it is also the one place the
# compact fallback training (serve.TrainDefaultEngine) runs in a real
# process. (The daemon's own tests run under `make race`.)
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
# seed => byte-identical reports, golden digest included), and the fleet's
# reads with them: pinned reads checked against unpinned ones on random
# fleets with stale replicas (TestFleetPinnedReadsMatchQuorumRead), and
# every quorum read, which takes its bytes from one replica, checked
# against a reference read of every replica in full, bytes moved included
# (TestFleetReadsMatchReference), and random sequences of fleet ops
# checked against a plain model of blobs, replicas and breakers
# (TestFleetMatchesOracle).
chaos:
	$(GO) test ./internal/cloud -race -count=2 -run 'Faulty|Exchange|Backoff|Fleet'

fmt:
	gofmt -w .

verify: lint build race perfbench-test chaos serve bench-smoke
