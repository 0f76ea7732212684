GO ?= go

.PHONY: check build test race fuzz-smoke bench bench-smoke bench-json bench-diff scale-smoke serve-smoke lint-panics lint-paths

# Tier-1 matrix: everything CI gates on. The conservation differential
# re-runs explicitly so a counter-attribution regression names itself in
# the CI log instead of hiding inside the package sweep.
check: lint-panics lint-paths
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/parallel/ ./internal/routing/
	$(GO) test -run=TestSweepPropagationConservation -count=1 ./internal/experiment/
	$(GO) test -run='^$$' -fuzz=FuzzPathCodec -fuzztime=10s ./internal/bgp/
	$(MAKE) bench-smoke
	$(MAKE) scale-smoke
	$(MAKE) serve-smoke

# Sweep workers must return errors, never panic (DESIGN.md §6 "Error
# contract"): non-test code in the gated packages may not call panic().
lint-panics:
	@bad=$$(grep -rn 'panic(' \
		internal/measure internal/relinfer internal/experiment internal/detect internal/defense \
		--include='*.go' --exclude='*_test.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "panic() calls in gated non-test code (return an error instead):"; \
		echo "$$bad"; exit 1; \
	fi

# The detection/measurement pipeline is arena-backed (DESIGN.md §5c): hot
# paths pass routing.PathSpan views, not materialized bgp.Path slices.
# Flag fresh path allocations sneaking back into the gated non-test code.
lint-paths:
	@bad=$$(grep -rn -e 'make(bgp\.Path' -e 'append(path' \
		internal/detect internal/measure internal/relinfer \
		--include='*.go' --exclude='*_test.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "path allocations in arena-backed hot paths (use routing.PathArena spans; see DESIGN.md 5c):"; \
		echo "$$bad"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzPathCodec -fuzztime=10s ./internal/bgp/
	$(GO) test -run='^$$' -fuzz=FuzzStreamDecoder -fuzztime=10s ./internal/bgp/
	$(GO) test -run='^$$' -fuzz=FuzzDetect -fuzztime=10s ./internal/detect/
	$(GO) test -run='^$$' -fuzz=FuzzSerial2 -fuzztime=10s ./internal/topology/
	$(GO) test -run='^$$' -fuzz='^FuzzPropagateBatch$$' -fuzztime=10s ./internal/routing/

# Serving-path smoke (DESIGN §5g): a short self-test replay through the
# sharded pipeline at the default ring depth must lose nothing under the
# block policy, raise alarms, and (without -race) sustain a conservative
# throughput floor. The soak variant re-runs the replay until the memory
# gauges prove a plateau.
serve-smoke:
	$(GO) test -run='TestServeSmoke|TestServeSoakMemoryPlateau' -count=1 ./internal/serve/

bench:
	$(GO) test -bench=. -benchmem .

# Every benchmark body runs exactly once, so benchmarks compile and execute
# on every `make check` and can never bit-rot. Not a measurement. The ./...
# sweep includes the PR 5 arena/detector benchmarks (BenchmarkPathsInto in
# internal/routing, BenchmarkDetectorObserve in internal/detect).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Internet-scale smoke (DESIGN §5f): a reduced tier-1 and a random pair
# sweep over the canonical internet80k topology at default config, with
# no memory knob. The test fails unless the recorded gauges show the sweep
# executor's bound — csr_bytes is the graph and cache_bytes at most one
# baseline — so a working-set regression gates CI.
scale-smoke:
	ASPP_SCALE=1 $(GO) test -run=TestScale80kPairSweepBounded -count=1 .

# Machine-readable record of the tier-1 benchmark suite: run the root
# package benchmarks with -benchmem and parse the output into
# BENCH_pr10.json (benchmark name -> ns/op, B/op, allocs/op, plus custom
# units like p99_ns under "extra"; schema in EXPERIMENTS.md). ASPP_SCALE=1
# ungates the 80k sweep benchmark so the committed record carries the
# Internet-scale entry. The committed file is the baseline future PRs
# diff against, via `benchjson -diff` or benchstat (see README).
bench-json:
	ASPP_SCALE=1 $(GO) test -run='^$$' -bench=. -benchmem . > .bench.out.tmp
	$(GO) run ./tools/benchjson < .bench.out.tmp > BENCH_pr10.json
	@rm -f .bench.out.tmp
	@echo wrote BENCH_pr10.json

# Per-benchmark before/after table plus geomean for the PR 10 record
# (the serving-pipeline benchmarks are new in PR 10, so they appear only
# on the "after" side; the shared rows gate against regressions).
bench-diff:
	$(GO) run ./tools/benchjson -diff BENCH_pr9.json BENCH_pr10.json
