#!/usr/bin/env bash
# sbbench: build the benchmark from source and run it.
#
#   benchmark/run.sh [--workload W|all] [--seed N] [--trace 0|1]
#                    [--smoke] [--record]
#
#   --workload  pathvector | pathvector-rsa | hashjoin | placement-churn |
#               serve-churn | all (default)
#   --seed      seed of the run's input family (default 1)
#   --trace 1   per-layer run: prints the per-layer metrics and writes
#               benchmark/out/<workload>.trace.json
#   --smoke     every workload at toy sizes, through ctest (under 15 s)
#   --record    rebaseline: seeds 1..10 of every workload into
#               benchmark/results/, then summarize them
#
# A run measures for a fixed 15 s. `--seconds 15` is accepted, because the
# command interface passes it; sbbench refuses any other value.
#
# Build logs go to stderr; stdout carries only results. The last stdout
# line of a single-workload run is {"correct", "attempted", "failed",
# "metrics"}. The exit status is nonzero when a check fails.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

workload=all seed=1 trace=0 smoke=0 record=0 seconds=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds=(--seconds "$2"); shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --record) record=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

build=.bench_build
jobs="$(nproc)"
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" --target sbbench >&2

if [ "$smoke" = 1 ]; then
  exec ctest --test-dir "$build" --output-on-failure >&2
fi

# Only a repository rooted here names the commit; never look above it.
git_sha="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
           git rev-parse --short=12 HEAD 2>/dev/null || echo none)"

all_workloads="pathvector pathvector-rsa hashjoin placement-churn serve-churn"
[ "$workload" = all ] && workloads="$all_workloads" || workloads="$workload"

run_one() {  # workload seed
  "$build/sbbench" --workload "$1" --seed "$2" --trace "$trace" \
      --git-sha "$git_sha" "${seconds[@]}"
}

status=0
if [ "$record" = 1 ]; then
  mkdir -p benchmark/results
  kind="$([ "$trace" = 1 ] && echo .trace || true)"
  for w in $workloads; do
    : > "benchmark/results/$w$kind.jsonl"
    for s in 1 2 3 4 5 6 7 8 9 10; do
      run_one "$w" "$s" > /dev/null || status=1
      cat "benchmark/out/$w$kind.result.json" >> "benchmark/results/$w$kind.jsonl"
    done
  done
  python3 benchmark/compare.py summarize benchmark/results
  exit "$status"
fi

for w in $workloads; do
  run_one "$w" "$seed" || status=1
done
exit "$status"
