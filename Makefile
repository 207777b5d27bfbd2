GO ?= go

.PHONY: check fmt vet lint build test race benchcheck bench

# check is the full gate: formatting, static analysis (vet + the repo's
# own analyzers), build, the race-enabled test suite, and the benchmark
# module's own vet/tests/smoke run. CI and pre-commit both run this one
# target.
check: fmt vet lint build race benchcheck

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the project-specific analyzers; `go run ./cmd/repolint -list`
# prints all nine with their docs.
lint:
	$(GO) run ./cmd/repolint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# benchcheck vets, tests and smoke-runs bench/, which is its own module
# and so is invisible to the root vet/test targets.
benchcheck:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	bash bench/run.sh -smoke | tail -n 1 | grep -q '"correct":true'

# bench runs the repo benchmark BENCHMARK.json declares; see
# bench/README.md for --workload/--seed/--seconds/--trace.
bench:
	bash bench/run.sh
