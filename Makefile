# GhostDB developer targets. `make lint` is the pre-merge gate: it runs
# the same checks CI enforces locally (gofmt, go vet, ghostdb-lint and
# the analyzer fixture corpus). See CHANGES.md for the checklist.

GO ?= go

.PHONY: all build test race lint fmt fuzz figures golden bench bench-test coverage size profile

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/ghostdb-lint
	$(GO) test -run 'Fixtures|ByName' ./internal/analysis/...

fmt:
	gofmt -w .

fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/sqlparse

# The paper's evaluation: Table 1, Figures 7-16 and the ablations, in
# simulated time (machine-independent).
figures:
	$(GO) run ./cmd/ghostdb-bench -exp all

# Rewrite the three pinned outputs from this build: the counter and
# operator-span ledgers and the scale-0.002 figures. Only for a change
# meant to move simulated behaviour; explain every changed line.
golden:
	$(GO) test ./internal/exec -run 'TestGoldenCounterLedger|TestOperatorSpansPinned' -update
	$(GO) test ./cmd/ghostdb-bench -run TestFiguresPinned -update

# Non-test Go lines (no _test.go, nothing under testdata/ or dot
# directories), outside and inside benchmark/: the line counts the
# ROADMAP's size bounds are stated in.
GOSRC = find $(1) -name '.?*' -prune -o -name testdata -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
size:
	@echo "non-test Go lines outside benchmark/: $$($(call GOSRC,. -path ./benchmark -prune -o))"
	@echo "non-test Go lines inside benchmark/:  $$($(call GOSRC,benchmark))"

# CPU and allocation profiles of BenchmarkPaperQStatement (one paperq
# statement per point, internal/exec/allocs_test.go), with the test
# binary beside them for pprof, under .bench_build/profile; prints the
# top of each. Sizes a host-side gain without the full benchmark, ~10 s.
PROFILE := .bench_build/profile
profile:
	@set -e; mkdir -p $(PROFILE); \
	$(GO) test -run '^$$' -bench PaperQStatement -benchtime 2s -benchmem \
		-o $(PROFILE)/exec.test -cpuprofile $(PROFILE)/cpu.pprof -memprofile $(PROFILE)/mem.pprof \
		./internal/exec; \
	echo "== CPU"; $(GO) tool pprof -top -nodecount 25 $(PROFILE)/exec.test $(PROFILE)/cpu.pprof; \
	echo "== allocated space"; $(GO) tool pprof -top -nodecount 25 -sample_index alloc_space $(PROFILE)/exec.test $(PROFILE)/mem.pprof

# The two-clock benchmark (benchmark/README.md): every workload,
# untraced then traced, ~2 min. bench-test runs the same pipeline at
# tiny scale and checks BENCHMARK.json against it, ~15 s.
bench:
	bash benchmark/run.sh

bench-test:
	cd benchmark && $(GO) test .

# Statement coverage of the product code (everything but benchmark/ and
# internal/analysis) that the four benchmark workloads (2 s each,
# untraced) and the paper's figures (scale 0.002) reach: per-package
# percentages, the merged total, and every function no run entered.
# Instrumented binaries and counters go under .bench_build/cover; ~30 s.
COVER := .bench_build/cover
coverage:
	@set -e; rm -rf $(COVER); mkdir -p $(COVER)/data; \
	export GOCACHE=$(CURDIR)/.bench_build/gocache GOTOOLCHAIN=local GOPROXY=off; \
	(cd benchmark && $(GO) build -cover -coverpkg=ghostdb/... -o ../$(COVER)/ghostdb-benchmark .); \
	$(GO) build -cover -coverpkg=ghostdb/... -o $(COVER)/ghostdb-bench ./cmd/ghostdb-bench; \
	for w in paperq oltp-server write-mix open-mix; do \
		echo "running $$w"; \
		GOCOVERDIR=$(COVER)/data $(COVER)/ghostdb-benchmark -workload $$w -seconds 2 -trace 0 >/dev/null; \
	done; \
	echo "running ghostdb-bench -exp all -scale 0.002"; \
	GOCOVERDIR=$(COVER)/data $(COVER)/ghostdb-bench -exp all -scale 0.002 >/dev/null; \
	$(GO) tool covdata textfmt -i $(COVER)/data -o $(COVER)/all.txt; \
	grep -v -e '^ghostdb/benchmark/' -e '^ghostdb/internal/analysis/' $(COVER)/all.txt > $(COVER)/product.txt; \
	$(GO) tool cover -func $(COVER)/product.txt > $(COVER)/func.txt; \
	echo "== statements reached, per package"; \
	$(GO) tool covdata percent -i $(COVER)/data | grep -v -e 'ghostdb/benchmark' -e 'ghostdb/internal/analysis'; \
	echo "== functions at 0%"; \
	awk '$$NF == "0.0%"' $(COVER)/func.txt; \
	echo "== $$(awk '$$NF == "0.0%"' $(COVER)/func.txt | wc -l) functions at 0%; product $$(tail -1 $(COVER)/func.txt | tr -s '\t ' ' ')"
