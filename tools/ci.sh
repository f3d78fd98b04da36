#!/usr/bin/env bash
# The one CI entry point (also what .github/workflows/ci.yml runs):
#
#   1. configure + build the default tree, run the full ctest suite;
#   2. differential-engine pass: the `engine`-labeled equivalence suite
#      (threaded engine vs interpreter oracle, every strategy) and the
#      `strategy` suite (rollback-strategy crash campaigns, negative
#      controls, and golden differences — docs/STRATEGIES.md) on the
#      default tree and again under WARIO_ENGINE=interp, so the
#      campaigns also run on the oracle engine; then the `engine` suite
#      under WARIO_ENGINE=threaded to prove the environment override
#      changes nothing observable;
#   3. rebuild under ThreadSanitizer and run the `tsan`-labeled tests
#      (the bench harness's parallel matrix driver);
#   4. rebuild under AddressSanitizer and run the `asan`-labeled tests
#      (module cloning, cache keying, snapshot page journal);
#   5. assert pass: a RelWithDebInfo tree built without -DNDEBUG runs the
#      suite minus the `crash` label. Every other tree defines NDEBUG
#      (RelWithDebInfo's default flags, Release, and the sanitizer trees
#      built with them), so this is the only pass in which assert-only
#      invariants — the hitting sets covering every WAR, the register
#      allocator's retry — are checked;
#   6. release-configuration pass: build -DCMAKE_BUILD_TYPE=Release and
#      run the `asan`-, `engine`-, `placement`- and `strategy`-labeled
#      subsets there
#      plus a one-workload bench smoke. This is the benchmarks'
#      configuration (-O3, NDEBUG); the pass catches bugs that show only
#      there (assert-side-effects, codepaths that only assert-guard an
#      invariant, such as the hitting set covering every WAR) and broken
#      release benchmark binaries before a BENCH recording does;
#   7. re-run the docs lint standalone so a docs-only failure is
#      reported even if a build step above broke first.
#
# The default-tree pass includes the `crash` label (the fault-injection
# campaigns, the long pole of the suite). Set WARIO_CI_FAST=1 to exclude
# it — and to trim the differential-engine matrix to one workload — for
# a quick local pre-push check.
#
# Usage: tools/ci.sh [build-root]   (default: build; the other trees go
# to <build-root>/tsan, <build-root>/asan, <build-root>/assert and
# <build-root>/release)

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$root/build"}
jobs=$(nproc 2>/dev/null || echo 4)

label_excludes=""
if [ "${WARIO_CI_FAST:-0}" = "1" ]; then
  label_excludes="-LE crash"
fi

echo "==> default build + full suite"
cmake -B "$build" -S "$root"
cmake --build "$build" -j "$jobs"
ctest --test-dir "$build" --output-on-failure -j "$jobs" $label_excludes

echo "==> differential engine suite (engine + strategy labels, default and interp)"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L 'engine|strategy'
WARIO_ENGINE=interp \
  ctest --test-dir "$build" --output-on-failure -j "$jobs" -L 'engine|strategy'
WARIO_ENGINE=threaded \
  ctest --test-dir "$build" --output-on-failure -j "$jobs" -L engine

echo "==> serve suite + loadgen smoke"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L serve
WARIO_CI_FAST=1 "$build/tools/wario_loadgen" --serve --connections 1 \
  --requests 4 --workloads crc

echo "==> tsan build + tsan/serve-labeled tests"
cmake -B "$build/tsan" -S "$root" -DWARIO_SANITIZE=thread
cmake --build "$build/tsan" -j "$jobs"
ctest --test-dir "$build/tsan" --output-on-failure -j "$jobs" -L 'tsan|serve'

echo "==> asan build + asan-labeled tests"
cmake -B "$build/asan" -S "$root" -DWARIO_SANITIZE=address
cmake --build "$build/asan" -j "$jobs"
ctest --test-dir "$build/asan" --output-on-failure -j "$jobs" -L asan

echo "==> assert build (RelWithDebInfo without NDEBUG) + suite minus crash"
cmake -B "$build/assert" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build "$build/assert" -j "$jobs"
ctest --test-dir "$build/assert" --output-on-failure -j "$jobs" -LE crash

echo "==> release build + asan/engine/placement/strategy subsets + bench smoke"
cmake -B "$build/release" -S "$root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build/release" -j "$jobs"
ctest --test-dir "$build/release" --output-on-failure -j "$jobs" \
  -L 'asan|engine|placement|strategy'
"$build/release/bench/micro_compiler" \
  --benchmark_filter='BM_Arena|BM_ModuleTeardown|BM_StageCloneModule' \
  --benchmark_min_time=0.05

echo "==> docs lint"
"$root/tools/check_docs.sh" "$root"

echo "ci: all passes green"
