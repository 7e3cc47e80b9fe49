GO ?= go

.PHONY: build test check lint bench bench-json benchpair simdiff golden loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast gate: vet + build + race-enabled tests on the small test graphs.
check:
	sh scripts/check.sh

# Static analysis: staticcheck when installed, falling back to go vet so
# the target works in minimal toolchain-only environments (CI installs
# staticcheck; see .github/workflows/ci.yml).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; running go vet ./..."; \
		$(GO) vet ./...; \
	fi

# Every registered experiment once, as BenchmarkExperiments/<name>.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The repository's benchmark (BENCHMARK.json): every workload, untraced
# then traced, into bench/out/result.json.
bench-json:
	bash bench/run.sh --workload all --out bench/out/result.json

# Alternating benchmark pairs of this tree against REF on workload WL, or on
# each of a comma-separated list of them
# (make benchpair REF=HEAD~1 [WL=g500-pcie,td-ssd-stack] [PAIRS=10] [SEED0=1]).
# Without WL: the three workloads that configure a page cache, g500-pcie (the
# storage stack without one) and the g500-dram control.
WL ?= td-ssd-stack,grid-4x4,pr-tails,g500-pcie,g500-dram
benchpair:
	bash scripts/benchpair.sh $(REF) $(WL) $(PAIRS) $(SEED0)

# Are this tree's virtual numbers byte-identical to REF's? (make simdiff REF=HEAD~1)
simdiff:
	bash scripts/simdiff.sh $(REF)

# Non-test Go lines per package, here or at REF (make loc REF=HEAD~1).
loc:
	bash scripts/loc.sh $(REF)

# Regenerate cmd/graph500's report goldens — only when a report is meant to change.
golden:
	$(GO) test ./cmd/graph500 -run Golden -update
