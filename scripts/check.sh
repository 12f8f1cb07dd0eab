#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the test suite, and smoke the
# engine and RSA microbenchmarks plus one figure harness in quick mode.
#
#   scripts/check.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

cmake -B "$build" -S "$repo"
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# Smoke: engine microbenchmarks (single rep, tiny time budget), including
# the filter-kernel tiers this CPU runs, and the fig04 harness on the
# CI-friendly sweep.
if [ -x "$build/micro_engine" ]; then
  "$build/micro_engine" --benchmark_min_time=0.01 \
      --benchmark_filter='BM_(TransitiveClosureChain|FixpointDependencyIndex|FusedFilterRange)'
  # Parallel fixpoint scaling curves on the fig08/fig10 flavoured
  # workloads: 1/2/4/8 workers at the unsharded layout plus the
  # shard-scaling curve (SB_SHARDS 1/4/8 at one and four workers),
  # recorded so the perf trajectory is tracked. The shards:1 rows double
  # as the regression gate for shard-aligned chunking. BM_InsertPath
  # records time and value-to-code encodes per stored tuple on a
  # hashjoin-shaped insert batch; BM_InstallProgram the time to install
  # (typecheck, compile, rule graph) the path-vector program under the
  # RSA-AES says policy.
  "$build/micro_engine" --benchmark_min_time=0.05 \
      --benchmark_filter='BM_(ParallelFixpoint(Convergence|Join)|InsertPath|InstallProgram)' \
      --benchmark_out="$build/BENCH_fixpoint.json" \
      --benchmark_out_format=json
  echo "wrote $build/BENCH_fixpoint.json"
fi
# Sharded determinism smoke: the storage/fixpoint, placement and query
# suites at a prime shard count (SB_SHARDS routes every relation through
# the hash-partitioned layout; results must be byte-identical). Placement
# covers routing, handoff and the invariance matrix; query covers the
# query/fixpoint differentials.
SB_SHARDS=7 ctest --test-dir "$build" --output-on-failure -j "$(nproc)" \
    -R 'relation_test|parallel_test|engine_test|delete_test|placement_test|dist_test|query_test|query_fuzz_test|udp_cluster_test'
# Counting-deletion smoke: per-delete work must not scale with the
# database (see the seeded/iter and retract_firings/iter counters), on the
# counting cascade through a recursive group and on a ring's proof search.
if [ -x "$build/micro_delete" ]; then
  "$build/micro_delete" --benchmark_min_time=0.01 \
      --benchmark_filter='BM_(CountingDeleteFlat|RecursiveCountingDelete|RecursiveRingDelete)'
fi
# Crypto smoke: RSA sign and verify at 512 and 1024 bits, SHA-1, HMAC-SHA1
# and AES-CTR on the tier this CPU picks (each row's label names it) plus
# portable SHA-1 and AES-CTR rows: the costs of every seal and open,
# recorded so the trajectory is tracked.
if [ -x "$build/micro_crypto" ]; then
  "$build/micro_crypto" --benchmark_min_time=0.05 \
      --benchmark_filter='BM_(Rsa(Sign|Verify)|Sha1|HmacSha1|AesCtr)' \
      --benchmark_out="$build/BENCH_crypto.json" \
      --benchmark_out_format=json
  echo "wrote $build/BENCH_crypto.json"
fi
SB_QUICK=1 SB_MAX_NODES=6 "$build/fig04_fixpoint_latency"

# Distribution-layer sweeps, merged into BENCH_dist.json:
#   - transaction granularity (§5.2): batch = 1/4/64/∞ on the fig06
#     path-vector workload; exits nonzero unless coalescing (batch ∞)
#     sends fewer messages than one-transaction-per-message (batch 1);
#   - shard-placement scale-out: the placed-closure workload on 1/6/18
#     nodes, recording per-node relation_*_bytes gauges and convergence;
#     exits nonzero unless the max per-node footprint at 6 nodes is
#     < 60% of the 1-node figure and the 18-node run converges with the
#     identical placed fixpoint.
SB_QUICK=1 SB_BENCH_OUT="$build/BENCH_txn.json" "$build/abl_txn_granularity"
SB_QUICK=1 SB_BENCH_OUT="$build/BENCH_placement.json" "$build/abl_placement"
{
  printf '{\n"txn_granularity": '
  cat "$build/BENCH_txn.json"
  printf ',\n"placement": '
  cat "$build/BENCH_placement.json"
  printf '}\n'
} > "$build/BENCH_dist.json"
echo "wrote $build/BENCH_dist.json"

echo "check.sh: OK"
