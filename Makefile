# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

# bash for pipefail: a crashing benchmark run must fail the pipe, not
# hand benchjson a partial report that slips through the gate.
SHELL := /bin/bash

# GATE_BENCH selects both what the gate runs and what benchcmp filters
# on — one variable, so the two sets cannot diverge (a baseline
# refreshed from a fuller report must never contain benchmarks the gate
# run does not produce).
GATE_BENCH   = ^Benchmark(BOSuggest(Sequential|Parallel)Scorer|BOSuggestLargeHistory(/n\d+)?|GPObserveIncremental|FleetSchedule|MonitorObserve|ArchiveQuery|WarmStartSeed)$$
GATE_PERCENT = 0.30

.PHONY: build test lint stormlint bench bench-baseline bench-gate bench-gp bench-pairs bench-smoke fuzz-smoke dash-smoke fleet-smoke serve-multi-smoke watch-smoke archive-smoke

build:
	go build ./... && go build ./examples/...

test:
	go test -short -race ./...

# The single lint entry point: formatting, go vet, staticcheck and the
# repo's own stormlint analyzer suite (internal/lint — determinism and
# concurrency contracts; see README "Static analysis"). staticcheck
# honors the committed staticcheck.conf. Install it with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
	  echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi
	go vet ./...
	staticcheck ./...
	go run ./cmd/stormlint ./...

# stormlint alone — fast enough to run on every save.
stormlint:
	go run ./cmd/stormlint ./...

bench:
	go test -run '^$$' -bench . -benchtime 1x ./...

# The GP/BO hot-path benchmarks alone: fit, incremental observe,
# decision steps at small and large history, the four-lane solve behind
# blocked scoring, and the kernel row (vector and generic). Fast enough
# to run while iterating on internal/gp, internal/linalg or internal/bo.
# A kernel row takes about a microsecond, so it runs at the default
# benchtime rather than three iterations.
bench-gp:
	go test -run '^$$' -bench '^Benchmark(GPFit|GPObserveIncremental|BOSuggest.*|ForwardSolve4)$$' -benchtime 3x -count 3 . ./internal/linalg
	go test -run '^$$' -bench '^BenchmarkMaternRow$$' -count 3 ./internal/gp

# Refresh the committed bench-regression baseline. Run this on the same
# class of machine CI uses (or accept that the first CI run after a
# hardware change may need a re-baseline), then commit the file:
#   make bench-baseline && git add BENCH_baseline.json
bench-baseline:
	set -o pipefail; go test -run '^$$' -bench '$(GATE_BENCH)' -benchtime 3x -count 3 . \
	  | go run ./cmd/benchjson -o BENCH_baseline.json

# The CI regression gate: fresh scorer numbers vs the committed
# baseline, failing on >$(GATE_PERCENT) ns/op growth.
bench-gate:
	set -o pipefail; go test -run '^$$' -bench '$(GATE_BENCH)' -benchtime 3x -count 3 . \
	  | go run ./cmd/benchjson -o BENCH_gate.json
	go run ./cmd/benchcmp -baseline BENCH_baseline.json -current BENCH_gate.json \
	  -filter '$(GATE_BENCH)' -threshold $(GATE_PERCENT)

# Paired A/B runs of the end-to-end benchmark: the merge base (in a
# temporary git worktree) against the working tree, alternating which
# side runs first; bench's -compare gives medians, spreads and verdicts,
# and scripts/benchpairs per-pair values and win counts. Pass options
# through ARGS, e.g.
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
# file bytes, tuner/watch snapshot loading, and the kernel row against
# its scalar oracle. go test -fuzz takes one target per run.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzJournalOpen$$' -fuzztime 10s ./internal/journal
	go test -run '^$$' -fuzz '^FuzzMaternRow$$' -fuzztime 10s ./internal/gp
	go test -run '^$$' -fuzz '^FuzzLoadTunerState$$' -fuzztime 10s .
	go test -run '^$$' -fuzz '^FuzzLoadWatchState$$' -fuzztime 10s .

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
