#!/usr/bin/env bash
# The performance gate: paired A/B runs of the merge base against the
# working tree (committed or not), with the side that runs first
# alternating from pair to pair (base first in the first pair) so slow
# drift of the host lands on both sides. It has two halves, picked by
# workload name:
#
#   - micro: the GATE_BENCH micro benchmarks below. One test binary is
#     built per tree with `go test -c`, and each pair runs it once per
#     side with -test.bench "$GATE_BENCH" -test.benchtime 3x
#     -test.count $MICRO_COUNT; scripts/benchpairs takes each side's
#     median of the MICRO_COUNT results as the pair's value.
#   - every workload in BENCHMARK.json, end to end: one pair per seed,
#     each run `bash bench/run.sh --workload W --seed S --seconds 20
#     --trace 0` in its own tree, at the 20 s run length BENCHMARK.json
#     fixes. Each side's runs are collected into a bench result set, and
#     bench's own `bash bench/run.sh -compare BASE CHANGE` prints both
#     medians and spreads (quartile distance over the median) for every
#     end-to-end metric.
#
# scripts/benchpairs then decides both halves on the pairs and prints
# every pair's two values. A metric fails only when its median is worse
# than the base's by more than its bound (30% ns/op micro, the
# BENCHMARK.json bounds end to end) and the change is worse in enough
# non-tied pairs to pass a one-sided exact sign test at 5% (6 of 6, 7 of
# 8, 9 of 10). A claimed gain needs the change to win the pairs and its
# median to move by more than the base side's quartile distance.
#
#   scripts/bench-pairs.sh [--workload W[,W...]] [--pairs N] [--first-seed S]
#                          [--base REF] [--base-dir DIR] [--out DIR]
#
# Defaults: micro plus every workload in BENCHMARK.json (the gate CI
# runs), 10 pairs, end-to-end seeds from 1, base = `git merge-base HEAD
# main`. Once the change is committed on main, name its parent with
# --base HEAD~1. The base tree is a `git worktree` under a temporary
# directory, removed on exit; --base-dir uses an existing checkout of
# the base instead (--base is then only a label). Raw output, logs and
# result sets go to --out (default .bench_build/pairs, gitignored).
# `make bench-pairs ARGS='...'` runs this script.
#
# Exit status is scripts/benchpairs' verdict: non-zero when a metric
# fails, a gated micro benchmark is missing on the change side, or a
# run fails, fails its correctness checks or loses a trial.
set -euo pipefail

# How many times each side runs every gated micro benchmark per pair;
# scripts/benchpairs takes the median. One run of three iterations
# swings by -40% to +186% from pair to pair on an unchanged benchmark.
# Five runs take about 3 s a side on a 2-vCPU host, so CI's six micro
# pairs stay under a minute.
MICRO_COUNT=5

# The gated micro benchmarks, and the only place they are named.
GATE_BENCH='^Benchmark(BOSuggest(Sequential|Parallel)Scorer|BOSuggestLargeHistory(/n\d+)?|GPObserveIncremental|FleetSchedule|MonitorObserve|ArchiveQuery|WarmStartSeed)$'

root="$(git rev-parse --show-toplevel)"
cd "$root"

workloads=""
pairs=10
first_seed=1
base_ref=""
base_dir=""
out="$root/.bench_build/pairs"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --first-seed) first_seed="$2"; shift 2 ;;
    --base) base_ref="$2"; shift 2 ;;
    --base-dir) base_dir="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    -h|--help) sed -n '2,43p' "$0"; exit 0 ;;
    *) echo "bench-pairs: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -z "$workloads" ]]; then
  workloads="micro,$(go run ./scripts/benchpairs -bench BENCHMARK.json -list-workloads)"
fi
if [[ -z "$base_ref" ]]; then
  base_ref="$(git merge-base HEAD main)"
fi

cleanup() { :; }
trap 'cleanup' EXIT
if [[ -z "$base_dir" ]]; then
  tmp="$(mktemp -d)"
  base_dir="$tmp/base"
  git worktree add --quiet --detach "$base_dir" "$base_ref"
  cleanup() {
    git -C "$root" worktree remove --force "$base_dir" 2>/dev/null || true
    rm -rf "$tmp"
  }
fi
mkdir -p "$out"
out="$(cd "$out" && pwd)" # the micro passes run from inside each tree
echo "base:   $base_ref ($base_dir)"
echo "change: working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes')"

status=0

# micro SIDE DIR runs SIDE's test binary once in its tree and appends
# the output to $out/micro.SIDE.log.
micro() {
  local side="$1" dir="$2" log="$out/micro.$1.log"
  if ! (cd "$dir" && "$out/micro.$side.test" -test.run '^$' -test.bench "$GATE_BENCH" \
      -test.benchtime 3x -test.count "$MICRO_COUNT" -test.timeout 20m) >>"$log" 2>&1; then
    echo "  $side micro pass failed, see $log" >&2
    status=1
  fi
}

# run SIDE DIR WORKLOAD SEED keeps the run's full output and appends its
# full result (the next-to-last output line) to $out/WORKLOAD.SIDE.jsonl.
run() {
  local side="$1" dir="$2" w="$3" s="$4" log="$out/$3.$1.seed$4.log" full
  if ! (cd "$dir" && bash bench/run.sh --workload "$w" --seed "$s" --seconds 20 --trace 0) >"$log" 2>&1; then
    echo "  $side seed $s: run failed, see $log" >&2
    status=1
  fi
  full="$(tail -n 2 "$log" | head -n 1)"
  if [[ "$full" == \{* ]]; then
    echo "$full" >>"$out/$w.$side.jsonl"
  fi
}

# result_set WORKLOAD SIDE SEEDS writes $out/WORKLOAD.SIDE.json, a bench
# result set of the side's runs.
result_set() {
  printf '{"seconds": 20, "seeds": [%s], "runs": [%s]}\n' "$3" \
    "$(paste -sd, "$out/$1.$2.jsonl")" >"$out/$1.$2.json"
}

for w in ${workloads//,/ }; do
  if [[ "$w" == micro ]]; then
    go -C "$base_dir" test -c -o "$out/micro.base.test" .
    go test -c -o "$out/micro.change.test" .
    rm -f "$out/micro.base.log" "$out/micro.change.log"
    for ((i = 0; i < pairs; i++)); do
      if ((i % 2 == 0)); then
        micro base "$base_dir"; micro change "$root"
      else
        micro change "$root"; micro base "$base_dir"
      fi
      echo "micro: pair $((i + 1))/$pairs done"
    done
    echo
    echo "== micro: $pairs pairs, base $base_ref vs working tree"
    go run ./scripts/benchpairs "$out/micro.base.log" "$out/micro.change.log" || status=1
    continue
  fi
  rm -f "$out/$w.base.jsonl" "$out/$w.change.jsonl"
  touch "$out/$w.base.jsonl" "$out/$w.change.jsonl"
  seeds=()
  for ((i = 0; i < pairs; i++)); do
    s=$((first_seed + i))
    if ((i % 2 == 0)); then
      run base "$base_dir" "$w" "$s"; run change "$root" "$w" "$s"
    else
      run change "$root" "$w" "$s"; run base "$base_dir" "$w" "$s"
    fi
    seeds+=("$s")
    echo "$w: pair $((i + 1))/$pairs (seed $s) done"
  done
  seed_list="$(IFS=,; echo "${seeds[*]}")"
  result_set "$w" base "$seed_list"
  result_set "$w" change "$seed_list"
  echo
  echo "== $w: $pairs pairs, base $base_ref (A) vs working tree (B)"
  # bench's table is for reading; its verdict column does not gate.
  bash bench/run.sh -compare "$out/$w.base.json" "$out/$w.change.json" || true
  echo
  go run ./scripts/benchpairs -bench BENCHMARK.json "$out/$w.base.json" "$out/$w.change.json" || status=1
done
exit "$status"
