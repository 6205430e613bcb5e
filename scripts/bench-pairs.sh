#!/usr/bin/env bash
# Paired A/B runs of the end-to-end benchmark: the merge base against
# the working tree (committed or not), one pair per seed, with the side
# that runs first alternating from pair to pair (base first in the
# first pair) so slow drift of the host lands on both sides. Each run is
#
#   bash bench/run.sh --workload W --seed S --seconds 20 --trace 0
#
# in its own tree, at the 20 s run length BENCHMARK.json fixes. Each
# side's runs are then collected into a bench result set, and the
# script prints
#
#   - bench's own comparison, `bash bench/run.sh -compare BASE CHANGE`:
#     both medians, both spreads (quartile distance over the median),
#     the bound and the verdict for every end-to-end metric;
#   - scripts/benchpairs: every pair's two values and how many pairs the
#     change wins.
#
# A claimed gain needs the change to win the pairs and its median to
# move by more than the base side's quartile distance (spread A times
# median A).
#
#   scripts/bench-pairs.sh [--workload W[,W...]] [--pairs N] [--first-seed S]
#                          [--base REF] [--base-dir DIR] [--out DIR]
#
# Defaults: every workload in BENCHMARK.json, 10 pairs from seed 1,
# base = `git merge-base HEAD main`. Once the change is committed on
# main, name its parent with --base HEAD~1. The base tree is a
# `git worktree` under a temporary directory, removed on exit;
# --base-dir uses an existing checkout of the base instead (--base is
# then only a label). Raw output and the result sets go to --out
# (default .bench_build/pairs, gitignored). `make bench-pairs
# ARGS='...'` runs this script.
#
# Exit status is non-zero when a run fails its correctness checks or
# loses a trial, or when bench's comparison finds a metric worse than
# its bound.
set -euo pipefail

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
    -h|--help) sed -n '2,37p' "$0"; exit 0 ;;
    *) echo "bench-pairs: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -z "$workloads" ]]; then
  workloads="$(go run ./scripts/benchpairs -bench BENCHMARK.json -list-workloads)"
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
echo "base:   $base_ref ($base_dir)"
echo "change: working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes')"

# run SIDE DIR WORKLOAD SEED keeps the run's full output and appends its
# full result (the next-to-last output line) to $out/WORKLOAD.SIDE.jsonl.
status=0
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
  bash bench/run.sh -compare "$out/$w.base.json" "$out/$w.change.json" || status=1
  echo
  go run ./scripts/benchpairs -bench BENCHMARK.json "$out/$w.base.json" "$out/$w.change.json" || status=1
done
exit "$status"
