# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands, so a green `make check bench-gate` locally predicts a green
# pipeline.

GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# The benchmark sweep the regression gate runs: short mode keeps the
# paper-table benches cheap, 3 iterations per measurement, 6 repetitions
# so benchgate can take a stable median.
BENCH_FLAGS := -short -run '^$$' -bench . -benchtime 3x -count 6

.PHONY: build test race race-repeat check lint loc bench bench-baseline bench-gate fuzz profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# ci.yml's repeated race step: the fabric's shard handoff, the
# fast-forward overlap that shares it and Listing 1's sharded arming,
# ten passes each.
race-repeat:
	$(GO) test -race -count=10 -run 'TestHandoff|TestConcurrentFabricsMatchSerial|TestPool' ./internal/fabric
	$(GO) test -race -count=10 -run 'TestFastForwardOverBudgetMatchesSequential|TestFastForwardConcurrentMachines|TestFastForwardCloseBetweenApplications|TestFastForwardHelperReclaimedWithoutClose|TestRunAllocatesNothing' ./internal/stencilc
	$(GO) test -race -count=10 -run 'TestSpMV3DShardedArming' ./internal/kernels

# benchmark/ is a module of its own that compiles against internal/kernels
# and internal/core, so check builds and tests it too.
check: build race-repeat
	$(GO) vet ./...
	$(GO) test ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

lint:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@if command -v staticcheck >/dev/null; then staticcheck ./...; else echo "staticcheck not installed; skipping (CI runs it)"; fi

# Non-test, non-generated .go lines per package under internal/ and
# cmd/, total last: run it at the parent and at HEAD and "N lines gone"
# is a diff of two commands (scripts/loc.sh takes a checkout path).
loc:
	@bash scripts/loc.sh

bench:
	$(GO) test $(BENCH_FLAGS) . | tee bench.txt

# Regenerate the committed baseline after an intentional performance
# change (run on the same class of machine CI uses, or expect the gate's
# threshold to absorb the difference). The sweep output goes to a temp
# dir so a baseline regen leaves no bench.txt detritus in the tree.
bench-baseline:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test $(BENCH_FLAGS) . | tee "$$tmp/bench.txt" && \
	$(GO) run ./cmd/benchgate -input "$$tmp/bench.txt" -write BENCH_BASELINE.json

# Compare the current tree against the committed baseline — the command
# the bench-regression CI job runs. The gated set is cmd/benchgate's
# default -gate, the one copy of the list.
bench-gate:
	$(GO) test $(BENCH_FLAGS) . | tee bench.txt
	$(GO) run ./cmd/benchgate -input bench.txt -baseline BENCH_BASELINE.json -threshold 15 -out bench-new.json

# The fuzz-smoke job of .github/workflows/ci.yml, target for target and
# with its -fuzztime each.
fuzz:
	$(GO) test ./internal/fp16 -run '^$$' -fuzz FuzzFloat16RoundTrip -fuzztime 30s
	$(GO) test ./internal/fp16 -run '^$$' -fuzz FuzzArithMatchesReference -fuzztime 30s
	$(GO) test ./internal/kernels -run '^$$' -fuzz FuzzSpMV2DEquivalence -fuzztime 90s
	$(GO) test ./internal/wse -run '^$$' -fuzz FuzzSnapshotRoundTrip -fuzztime 60s
	$(GO) test ./internal/wse -run '^$$' -fuzz FuzzCoreStep -fuzztime 150s
	$(GO) test ./internal/fabric -run '^$$' -fuzz FuzzClaim -fuzztime 120s
	$(GO) test ./internal/stencilc -run '^$$' -fuzz FuzzStencilcEquivalence -fuzztime 90s
	$(GO) test ./internal/perfmodel -run '^$$' -fuzz FuzzExchangeReplay -fuzztime 60s
	$(GO) test ./internal/exact -run '^$$' -fuzz FuzzExactAccMatchesBig -fuzztime 30s
	$(GO) test ./internal/wse/difftest -run '^$$' -fuzz FuzzJumpMatchesStep -fuzztime 60s
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzJobSpec -fuzztime 30s

# CPU + heap profile of the machine-step hot path (saturated 128×128,
# sequential engine) — the workflow that found wse.Core.step dominating
# machine cycles and motivated the event-driven scheduler; see README
# "Profiling". Inspect with `go tool pprof cpu.prof` / `mem.prof`.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkMachineStep$$/^128x128$$/^seq$$' \
		-benchtime 300x -count 1 -cpuprofile cpu.prof -memprofile mem.prof .
	$(GO) tool pprof -top -nodecount 15 cpu.prof
