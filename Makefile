# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

.PHONY: build test lint stormlint bench bench-gp bench-pairs bench-smoke fuzz-smoke dash-smoke fleet-smoke serve-multi-smoke watch-smoke archive-smoke

build:
	go build ./... && go build ./examples/...

test:
	go test -short -race ./...

# The single lint entry point: formatting, go vet (of the root module
# and of the separate bench module, which calls the public API),
# staticcheck and the repo's own stormlint analyzer suite (internal/lint
# — determinism and concurrency contracts; see README "Static
# analysis"). staticcheck honors the committed staticcheck.conf.
# Install it with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
	  echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi
	go vet ./...
	go -C bench vet ./...
	staticcheck ./...
	go run ./cmd/stormlint ./...

# stormlint alone — fast enough to run on every save.
stormlint:
	go run ./cmd/stormlint ./...

bench:
	go test -run '^$$' -bench . -benchtime 1x ./...

# The GP/BO hot-path benchmarks alone: fit, incremental observe,
# decision steps at small and large history, the blocked forward solves
# behind acquisition scoring (four lanes portable and vector, sixteen
# lanes), a cold slice-sampling epoch (scalar and vector), the
# Cholesky refactorization (scalar and vector), the kernel row (vector
# and generic) and a scan block's kernel rows (sixteen per-lane rows vs
# the sixteen-candidate block). Fast enough to run while iterating on
# internal/gp, internal/linalg or internal/bo. A factorization, kernel
# row or block takes microseconds, so those run at the default
# benchtime rather than three iterations.
bench-gp:
	go test -run '^$$' -bench '^Benchmark(GPFit|GPObserveIncremental|BOSuggest.*|ForwardSolveBlock)$$' -benchtime 3x -count 3 . ./internal/linalg
	go test -run '^$$' -bench '^BenchmarkSliceSampleEpoch$$' -benchtime 3x -count 3 ./internal/gp
	go test -run '^$$' -bench '^BenchmarkCholeskyRefactor$$' -count 3 ./internal/linalg
	go test -run '^$$' -bench '^BenchmarkMatern(Row|Block)$$' -count 3 ./internal/gp

# The performance gate CI runs: paired A/B runs of the merge base (in a
# temporary git worktree) against the working tree, alternating which
# side runs first, over the gated micro benchmarks and every end-to-end
# workload; scripts/benchpairs decides each metric on the pairs. Pass
# options through ARGS, e.g.
#   make bench-pairs ARGS='--workload fleet-durable --pairs 10'
bench-pairs:
	./scripts/bench-pairs.sh $(ARGS)

# The end-to-end benchmark's correctness suite: every workload at tiny
# scale, with the bit-identical rerun, fleet-log recovery and
# wire-vs-in-process checks. bench/ is a separate module, so the root
# `go test ./...` never reaches it.
bench-smoke:
	go -C bench test ./...

# The native fuzz targets, 10 s each: journal recovery over arbitrary
# file bytes, tuner/watch snapshot loading, the kernel row, the
# sixteen-candidate kernel block, the sixteen- and four-lane forward
# solves and the Cholesky column kernel against their scalar oracles,
# and the serve worker's /run decoder over arbitrary request bodies.
# go test -fuzz takes one target per run. Each new
# interesting input is minimized for at most 2 s: at Go's 60 s default
# the snapshot loaders spend the whole run minimizing and barely fuzz.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzJournalOpen$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/journal
	go test -run '^$$' -fuzz '^FuzzMaternRow$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/gp
	go test -run '^$$' -fuzz '^FuzzMaternBlock$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/gp
	go test -run '^$$' -fuzz '^FuzzForwardSolve16$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/linalg
	go test -run '^$$' -fuzz '^FuzzForwardSolve4$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/linalg
	go test -run '^$$' -fuzz '^FuzzCholesky$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/linalg
	go test -run '^$$' -fuzz '^FuzzLoadTunerState$$' -fuzztime 10s -fuzzminimizetime 2s .
	go test -run '^$$' -fuzz '^FuzzLoadWatchState$$' -fuzztime 10s -fuzzminimizetime 2s .
	go test -run '^$$' -fuzz '^FuzzServeRun$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/remote

# The CI dashboard smoke test, runnable locally.
dash-smoke:
	./scripts/dash-smoke.sh

# The CI fleet smoke test: two live serve workers, a real 3-session
# `stormtune fleet` run, /api/fleet + per-session SSE probes.
fleet-smoke:
	./scripts/fleet-smoke.sh

# The CI serving-plane smoke test: one authed worker serving two
# topologies, a heterogeneous fleet over it, a kill -9 mid-run, and a
# `-resume` that must reproduce the uninterrupted run's summary.
serve-multi-smoke:
	./scripts/serve-multi-smoke.sh

# The CI continuous-tuning smoke test: a live `stormtune watch` under a
# flash-crowd drift, asserting the retune episode shows up in
# /api/state and on the SSE stream.
watch-smoke:
	./scripts/watch-smoke.sh

# The CI archive smoke test: cold tune with -archive, `stormtune
# archive list/show`, warm re-tune (warmStarted probed via /api/state),
# gc of the abandoned record, export/import round trip.
archive-smoke:
	./scripts/archive-smoke.sh
