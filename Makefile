GO ?= go

.PHONY: check vet build test lint diff-oracle race bench profile tables clean

# Tier-1 gate: everything must vet, build and pass. vet and test also
# cover benchmark/, its own module (replace repro => ../), which
# `go build ./...` never compiles: a renamed or deleted export it still
# uses fails here, as in CI's check job.
check: vet build test

# Invariant lint: the vplint analyzers (docs/LINTING.md) over the whole
# module, in both build-tag variants so the scan oracle stays analyzable.
# The binary is built once and reused; only the loader's go-list pass
# differs between the variants. The waiver ratchet (//vpr:allowalloc,
# nocachekey and phaseexempt directives, a committed baseline per
# variant) is TestRepoClean in internal/lint, so `make test` enforces it.
lint:
	$(GO) build -o bin/vplint ./cmd/vplint
	./bin/vplint ./...
	./bin/vplint -tags scanoracle ./...

vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	$(GO) test -C benchmark ./...

# Differential oracle: the pre-refactor scan kernel lives behind the
# scanoracle build tag; this runs the event-vs-scan equivalence sweep
# (CI runs it on every push).
diff-oracle:
	$(GO) vet -tags scanoracle ./internal/pipeline/
	$(GO) test -tags scanoracle -run 'TestDifferential' ./internal/pipeline/

race:
	$(GO) test -race ./...

# Benchmarks; BenchmarkRunBatch compares the serial and parallel engine,
# and vpbench records the perf trajectory into BENCH_pipeline.json
# (instrs/sec per scheme, the multicore/coherence points with their
# lockstep-vs-parallel twins and GOMAXPROCS sweep, harness timings — the
# schema and CI-enforced fields are documented in docs/BENCH.md).
# -repeat keeps the best of N runs per point so the recorded trajectory
# measures the simulator, not host noise.
BENCH_REPEAT ?= 5
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) run ./cmd/vpbench -out BENCH_pipeline.json -repeat $(BENCH_REPEAT)

# CPU+heap profiles of the vpbench measurement itself (the multicore
# points dominate): feed the outputs to `go tool pprof bin/vpbench
# cpu.pprof`. See docs/BENCH.md for reading them against the gate
# counters.
profile:
	$(GO) build -o bin/vpbench ./cmd/vpbench
	./bin/vpbench -out BENCH_profile.json -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "profiles: cpu.pprof mem.pprof (go tool pprof bin/vpbench cpu.pprof)"

# Regenerate every paper table/figure through the registry + engine path.
tables:
	$(GO) run ./cmd/vptables -exp all

clean:
	$(GO) clean ./...
