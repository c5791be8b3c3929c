GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt-check vet test race bench bench-smoke bench-tree tree-smoke experiments fuzz-smoke serve-smoke chaos-smoke cert-smoke watch-smoke persist-smoke perfbench-smoke inventory ci

# Seconds of fuzzing per target in fuzz-smoke.
FUZZTIME ?= 30s

# Fixed iteration and repetition counts for `make bench`: pinning -benchtime
# keeps run-to-run numbers comparable (ns/op ratios against the baseline are
# iteration-count independent, but the variance isn't).
BENCHTIME ?= 100x
BENCHCOUNT ?= 3
# Raw `go test -bench` output of the benchmark suite at the commit before the
# interned search engine landed; `make bench` joins against it for speedups.
BENCH_BASELINE ?= BENCH_head_baseline.txt

# The benchmark subset recorded in BENCH_prover.json: the two acceptance
# families (soundness obligations, Table 2 checking) plus the prover and
# engine microbenchmarks.
BENCH_ROOT = ^(BenchmarkTable2Untainted|BenchmarkSoundness|BenchmarkAblationCongruenceChain|BenchmarkProverPosMultiplication|BenchmarkProverSelectStore)$$
BENCH_SIMPLIFY = ^(BenchmarkRefute|BenchmarkTheoryConflict|BenchmarkConflictLearning)$$
# Geomean-regression tolerance for the bench-smoke CI gate.
BENCH_MAX_REGRESS ?= 0.10

all: build

build:
	$(GO) build ./...

# fmt-check fails when any Go file in the repository, perfbench included,
# is not gofmt-formatted, listing the offenders.
fmt-check:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# vet covers the repository and the perfbench module, which ./... does not
# reach (it has its own go.mod).
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the parallel-vs-serial
# equivalence tests in internal/soundness and internal/checker exercise the
# concurrent prover, cache, and checker paths.
race:
	$(GO) test -race ./...

# bench reruns the recorded prover benchmark suite with fixed -benchtime and
# -count and rewrites BENCH_prover.json, the committed performance record,
# including per-family geomean speedups against $(BENCH_BASELINE). The prior
# document's summary is folded into the new one's "history" array, so the
# committed record keeps the PR-over-PR trajectory.
bench:
	{ $(GO) test -run '^$$' -bench '$(BENCH_ROOT)' -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . ; \
	  $(GO) test -run '^$$' -bench '$(BENCH_SIMPLIFY)' -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/simplify ; } \
	| $(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -prev BENCH_prover.json \
	    -note "benchtime=$(BENCHTIME) count=$(BENCHCOUNT); baseline: pre-interning HEAD ($(BENCH_BASELINE))" \
	    -o BENCH_prover.json
	@echo wrote BENCH_prover.json

# bench-smoke compiles and runs every benchmark of the root package and the
# simplify, cminor and checker packages for one iteration (the CI guard that
# keeps the suite building and panic-free), then reruns the
# recorded subset at a reduced fixed -benchtime and fails if its geomean
# speedup has fallen more than $(BENCH_MAX_REGRESS) below the committed
# BENCH_prover.json. Averaging -count 3 samples matters more than long
# -benchtime here: the µs-scale suite members swing 30% on single samples
# (warmup), which a one-shot 50x gate was observed to trip on.
GATE_BENCHTIME ?= 25x
GATE_BENCHCOUNT ?= 3
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/simplify ./internal/cminor ./internal/checker
	{ $(GO) test -run '^$$' -bench '$(BENCH_ROOT)' -benchtime $(GATE_BENCHTIME) -count $(GATE_BENCHCOUNT) . ; \
	  $(GO) test -run '^$$' -bench '$(BENCH_SIMPLIFY)' -benchtime $(GATE_BENCHTIME) -count $(GATE_BENCHCOUNT) ./internal/simplify ; } \
	| $(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) \
	    -prev BENCH_prover.json -max-regress $(BENCH_MAX_REGRESS) >/dev/null

# The repo-scale tree-checking benchmark recorded in BENCH_tree.json, with
# its own raw baseline (the first CheckTree implementation's run).
TREE_BENCH = ^BenchmarkCheckTree$$
TREE_BASELINE ?= BENCH_tree_baseline.txt

# bench-tree reruns the tree-checking benchmark and rewrites BENCH_tree.json,
# the committed repo-scale throughput record, folding the prior summary into
# its history like `make bench` does for BENCH_prover.json.
bench-tree:
	$(GO) test -run '^$$' -bench '$(TREE_BENCH)' -benchtime 10x -count $(BENCHCOUNT) ./internal/checker \
	| $(GO) run ./cmd/benchjson -baseline $(TREE_BASELINE) -prev BENCH_tree.json \
	    -note "benchtime=10x count=$(BENCHCOUNT); baseline: first CheckTree implementation ($(TREE_BASELINE))" \
	    -o BENCH_tree.json
	@echo wrote BENCH_tree.json

# tree-smoke is the repo-scale CI gate: scripts/tree_smoke.sh generates a
# ~500-file corpus and asserts `qualcheck -r` produces byte-identical
# diagnostics at -j 1 and -j NumCPU (plus a min(4, NumCPU/2)x wall-clock
# speedup floor where the core count makes one meaningful), then the
# tree-checking benchmark geomean is gated against BENCH_tree.json the same
# way bench-smoke gates the prover suite.
tree-smoke:
	sh scripts/tree_smoke.sh
	$(GO) test -run '^$$' -bench '$(TREE_BENCH)' -benchtime 5x -count $(GATE_BENCHCOUNT) ./internal/checker \
	| $(GO) run ./cmd/benchjson -baseline $(TREE_BASELINE) \
	    -prev BENCH_tree.json -max-regress $(BENCH_MAX_REGRESS) >/dev/null

experiments:
	$(GO) run ./cmd/experiments

# fuzz-smoke gives each native fuzz target a short budget: the two front-end
# parsers must never panic on arbitrary bytes, the prover must never disagree
# with the ground-formula oracle, the certificate replay checker must reject
# (never accept or panic on) arbitrary mutations of valid certificates, the
# prover and function-cache payload decoders must never panic and must
# round-trip whatever they accept, and the /check handler must answer any
# body with a contract status and a JSON payload.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/cminor
	$(GO) test -run '^$$' -fuzz '^FuzzParseQDL$$' -fuzztime $(FUZZTIME) ./internal/qdl
	$(GO) test -run '^$$' -fuzz '^FuzzProveGround$$' -fuzztime $(FUZZTIME) ./internal/simplify
	$(GO) test -run '^$$' -fuzz '^FuzzCertificateReplay$$' -fuzztime $(FUZZTIME) ./internal/cert
	$(GO) test -run '^$$' -fuzz '^FuzzPayloadDecoders$$' -fuzztime $(FUZZTIME) ./internal/tiercache
	$(GO) test -run '^$$' -fuzz '^FuzzCheckHandler$$' -fuzztime $(FUZZTIME) ./internal/server

# chaos-smoke runs the fault-injection soak under the race detector: a
# deterministic subset of the fault catalog armed, 64 concurrent clients,
# every request answered once (no retries) from {200, 413, 503, 504} with a
# JSON body, no goroutine leaks, no fault-minted cache entries, and full
# recovery (breaker closed, sound verdicts) once the faults are disarmed;
# the soak shortens the /prove breaker's 5s cooldown in-package so recovery
# is quick.
chaos-smoke:
	$(GO) test -race -run '^TestChaosSoak$$' -count=1 ./internal/server

# cert-smoke proves the entire shipped qualifier suite with certificate
# emission on: every Valid obligation must carry a proof certificate that the
# independent replay checker accepts, with zero rejections.
cert-smoke:
	$(GO) test -run '^TestCertificateSmoke$$' -count=1 ./internal/soundness

# serve-smoke builds the qualserve binary and runs the end-to-end smoke
# tests: the real binary on an ephemeral port, one /check round-trip, then a
# clean SIGTERM drain; and a two-node -cert -cache-peers pair whose second
# node answers /prove from verified peer records.
serve-smoke:
	$(GO) build ./cmd/qualserve
	$(GO) test -run '^TestQualserve(Peer)?Smoke$$' ./cmd/qualserve

# watch-smoke runs the incremental-daemon end-to-end gate: the real qualcheck
# main in -watch polling mode over a generated corpus tree, one function
# edited, asserting the next generation re-checks exactly one file with a
# FuncCache miss delta of exactly one, and that the daemon's accumulated
# diagnostics byte-match a fresh batch `qualcheck -r` of the final tree.
watch-smoke:
	$(GO) test -run '^TestWatchSmoke$$' -count=1 ./cmd/qualcheck

# persist-smoke is the durable-cache gate: scripts/persist_smoke.sh runs the
# real qualcheck binary twice against one -cache-dir (run 2 must serve every
# file from its disk record, with no miss and byte-identical diagnostics),
# edits one function in one file (the next run must miss exactly that file's
# record and match a fresh run without -cache-dir), then corrupts a
# committed record and asserts the next cold start detects it, evicts it,
# and re-checks — converging to the same diagnostics as a fresh run.
persist-smoke:
	sh scripts/persist_smoke.sh

# perfbench-smoke builds and tests the end-to-end benchmark harness. It is a
# separate Go module (perfbench/go.mod), so neither `go test ./...` nor any
# other target compiles it; without this step a change to the API it drives
# would only surface when the benchmark itself is run.
perfbench-smoke:
	cd perfbench && $(GO) test ./...

# inventory prints the three sizes ROADMAP aim 2 tracks: non-test Go lines
# and *Stats/*Snapshot/*Counters struct types outside perfbench/ (tracked
# files only), and flag definitions in cmd/*/main.go. It reports and gates
# nothing.
FLAG_DEFS = flag\.(Bool|BoolFunc|BoolVar|Duration|DurationVar|Float64|Float64Var|Func|Int|Int64|Int64Var|IntVar|String|StringVar|TextVar|Uint|Uint64|Uint64Var|UintVar|Var)\(
inventory:
	@echo "non-test Go lines outside perfbench/: $$(git ls-files '*.go' ':!:*_test.go' ':!:perfbench/*' | xargs cat | wc -l)"
	@echo "stats/snapshot/counters struct types outside perfbench/: $$(git ls-files '*.go' ':!:*_test.go' ':!:perfbench/*' | xargs grep -hE '^type [A-Za-z0-9_]*(Stats|Snapshot|Counters) struct' | wc -l)"
	@echo "CLI flags in cmd/*/main.go: $$(grep -ohE '$(FLAG_DEFS)' cmd/*/main.go | wc -l)"

# ci is the gate: everything must be gofmt-clean, build, vet clean, pass under
# -race, run every benchmark for one smoke iteration, keep serial and
# parallel tree checking byte-identical (and fast enough), survive a short
# fuzzing budget on each fuzz target, replay every qualifier-suite
# certificate, serve one checking request end to end, hold the serving
# contract under injected faults, keep the watch daemon's incremental
# generations faithful to batch checking, keep the disk-backed caches
# crash-safe and self-healing, and keep the benchmark harness building and
# passing its smoke test.
ci: fmt-check build vet race bench-smoke tree-smoke fuzz-smoke cert-smoke serve-smoke chaos-smoke watch-smoke persist-smoke perfbench-smoke
