#!/usr/bin/env bash
# Flat gprof profile of one sbbench workload, allocator included.
#
#   scripts/profile.sh <build-dir> [workload] [seed]
#
# Builds sbbench with -pg into <build-dir>, linked statically so that libc
# (malloc, free, memcpy, ...) is sampled too: a dynamically linked gprof
# build attributes no time to shared libraries, which hides the allocator
# and inflates every other share. Runs one untraced workload (default
# hashjoin, seed 1) with <build-dir> as the working directory, so gmon.out
# and sbbench's result files land there and nothing is written under the
# repository's benchmark/, then prints gprof's flat profile.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:?usage: scripts/profile.sh <build-dir> [workload] [seed]}"
workload="${2:-hashjoin}"
seed="${3:-1}"

mkdir -p "$build"
build="$(cd "$build" && pwd)"
case "$build/" in
  "$repo/benchmark/"*)
    echo "profile.sh: the build directory must lie outside benchmark/" >&2
    exit 2 ;;
esac

cmake -S "$repo/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-pg" -DCMAKE_EXE_LINKER_FLAGS="-pg -static" >&2
cmake --build "$build" -j "$(nproc)" --target sbbench >&2

cd "$build"
rm -f gmon.out
./sbbench --workload "$workload" --seed "$seed" --trace 0 > /dev/null
gprof -b -p ./sbbench gmon.out
