# GhostDB developer targets. `make lint` is the pre-merge gate: it runs
# the same checks CI enforces locally (gofmt, go vet, ghostdb-lint and
# the analyzer fixture corpus). See CHANGES.md for the checklist.

GO ?= go

.PHONY: all build test race lint fmt fuzz figures bench bench-test

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

# The two-clock benchmark (benchmark/README.md): every workload,
# untraced then traced, ~2 min. bench-test runs the same pipeline at
# tiny scale and checks BENCHMARK.json against it, ~15 s.
bench:
	bash benchmark/run.sh

bench-test:
	cd benchmark && $(GO) test .
