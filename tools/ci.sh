#!/usr/bin/env bash
# The one CI definition. `.github/workflows/ci.yml` runs each pass below
# as one job of a matrix (`tools/ci.sh <pass>`); with no pass, or `all`,
# this script runs every pass in order:
#
#   default  configure + build the default tree, run the full ctest
#            suite;
#   engine   the `engine`-labeled suites (threaded engine vs interpreter
#            oracle under every strategy, emulation results pinned to
#            recorded values, the hand-built emulator tests) and the
#            `strategy` suite (rollback-strategy crash campaigns, negative
#            controls, and golden differences — docs/STRATEGIES.md) under
#            WARIO_ENGINE=interp, so every test that leaves the engine to
#            the environment also runs on the oracle engine (the default
#            pass already runs both labels on the threaded engine, and
#            WARIO_ENGINE=threaded resolves exactly like unset);
#   serve    a one-connection loadgen smoke against an in-process
#            daemon, then `wario_served` started as a process of its own
#            and driven by `wario_loadgen --socket` (2 connections x 4
#            requests), so the two binaries' protocol versions are
#            checked against each other; SIGTERM then stops the daemon,
#            and both processes must exit with status 0 (the default
#            pass runs the `serve` suite);
#   tsan     rebuild under ThreadSanitizer and run the `tsan`- and
#            `serve`-labeled tests (the bench harness's parallel matrix
#            driver, parallelFor's contract in ParallelForTest, the
#            daemon's soak);
#   asan     rebuild under AddressSanitizer and run the `asan`-labeled
#            tests (module cloning, cache keying, snapshot page journal,
#            a regenerator under an evicting cache);
#   assert   a RelWithDebInfo tree built without -DNDEBUG runs the suite
#            minus the `crash` label. Every other tree defines NDEBUG
#            (RelWithDebInfo's default flags, Release, and the sanitizer
#            trees built with them), so this is the only pass in which
#            assert-only invariants — the hitting sets covering every
#            WAR, the register allocator's retry — are checked, and in
#            which the IR verifier runs after the front half and after
#            the middle end of every compile the suite makes
#            (src/driver/Pipeline.cpp);
#   ubsan    a RelWithDebInfo tree compiled and linked with
#            -fsanitize=undefined -fno-sanitize-recover=undefined runs
#            the full suite, so any undefined behaviour (signed overflow,
#            misaligned or out-of-range access, bad shifts) fails the
#            test that reached it;
#   release  build -DCMAKE_BUILD_TYPE=Release and run the `asan`-,
#            `engine`-, `placement`-, `serve`- and `strategy`-labeled
#            subsets there (`serve` so the FNV digest kernels and the
#            cache-hit reply path are tested as the benchmark builds
#            them), plus the perfbench smoke (tools/perfbench_smoke.sh:
#            every BENCHMARK.json workload for one second and
#            compile_matrix once traced, each run required to report
#            "correct": true; the benchmark builds under
#            <build-root>/perfbench). This is the benchmarks'
#            configuration (-O3, NDEBUG); the pass catches bugs that
#            show only there (assert-side-effects, codepaths that only
#            assert-guard an invariant) and a broken release benchmark
#            before a BENCH recording does;
#   docs     the docs lint standalone, so a docs-only failure is
#            reported even if a build broke.
#
# The engine and serve passes build the default tree themselves when run
# alone; after the default pass the rebuild is a no-op.
#
# The default and ubsan passes include the `crash` label (the
# fault-injection campaigns, the long pole of the suite). Set
# WARIO_CI_FAST=1 to exclude it — and to trim the differential-engine
# matrix, the strategy campaigns and the serve soak to one workload or
# two clients — for a quick local pre-push check.
#
# Usage: tools/ci.sh [pass|all] [build-root]   (default: all, build; the
# other trees go to <build-root>/tsan, <build-root>/asan,
# <build-root>/assert, <build-root>/ubsan, <build-root>/release and
# <build-root>/perfbench)

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
pass=${1:-all}
build=${2:-"$root/build"}
jobs=$(nproc 2>/dev/null || echo 4)
passes="default engine serve tsan asan assert ubsan release docs"

label_excludes=""
if [ "${WARIO_CI_FAST:-0}" = "1" ]; then
  label_excludes="-LE crash"
fi

build_default() {
  cmake -B "$build" -S "$root"
  cmake --build "$build" -j "$jobs"
}

pass_default() {
  echo "==> default build + full suite"
  build_default
  ctest --test-dir "$build" --output-on-failure -j "$jobs" $label_excludes
}

pass_engine() {
  echo "==> engine + strategy labels on the interpreter (WARIO_ENGINE=interp)"
  build_default
  WARIO_ENGINE=interp \
    ctest --test-dir "$build" --output-on-failure -j "$jobs" -L 'engine|strategy'
}

pass_serve() {
  echo "==> loadgen smoke"
  build_default
  WARIO_CI_FAST=1 "$build/tools/wario_loadgen" --serve --connections 1 \
    --requests 4 --workloads crc

  echo "==> loadgen against a separate wario_served"
  local sock="${TMPDIR:-/tmp}/wario_ci_serve_$$.sock"
  rm -f "$sock"
  "$build/tools/wario_served" --socket "$sock" &
  local daemon=$!
  # Whatever step fails, the daemon does not outlive the pass.
  trap "kill $daemon 2>/dev/null || true" EXIT
  for _ in $(seq 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  "$build/tools/wario_loadgen" --socket "$sock" --connections 2 \
    --requests 4 --workloads crc
  kill -TERM "$daemon"
  wait "$daemon" # Under set -e a nonzero exit status fails the pass.
  trap - EXIT
}

pass_tsan() {
  echo "==> tsan build + tsan/serve-labeled tests"
  cmake -B "$build/tsan" -S "$root" -DWARIO_SANITIZE=thread
  cmake --build "$build/tsan" -j "$jobs"
  ctest --test-dir "$build/tsan" --output-on-failure -j "$jobs" -L 'tsan|serve'
}

pass_asan() {
  echo "==> asan build + asan-labeled tests"
  cmake -B "$build/asan" -S "$root" -DWARIO_SANITIZE=address
  cmake --build "$build/asan" -j "$jobs"
  ctest --test-dir "$build/asan" --output-on-failure -j "$jobs" -L asan
}

pass_assert() {
  echo "==> assert build (RelWithDebInfo without NDEBUG) + suite minus crash"
  cmake -B "$build/assert" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
  cmake --build "$build/assert" -j "$jobs"
  ctest --test-dir "$build/assert" --output-on-failure -j "$jobs" -LE crash
}

pass_ubsan() {
  echo "==> ubsan build (RelWithDebInfo, -fsanitize=undefined) + full suite"
  local flags="-fsanitize=undefined -fno-sanitize-recover=undefined"
  cmake -B "$build/ubsan" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$flags"
  cmake --build "$build/ubsan" -j "$jobs"
  ctest --test-dir "$build/ubsan" --output-on-failure -j "$jobs" $label_excludes
}

pass_release() {
  echo "==> release build + asan/engine/placement/serve/strategy subsets + perfbench smoke"
  cmake -B "$build/release" -S "$root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build/release" -j "$jobs"
  ctest --test-dir "$build/release" --output-on-failure -j "$jobs" \
    -L 'asan|engine|placement|serve|strategy'
  "$root/tools/perfbench_smoke.sh" "$build/perfbench"
}

pass_docs() {
  echo "==> docs lint"
  "$root/tools/check_docs.sh" "$root"
}

case " all $passes " in
  *" $pass "*) ;;
  *)
    echo "usage: $0 [all|${passes// /|}] [build-root]" >&2
    exit 2
    ;;
esac

if [ "$pass" = all ]; then
  for p in $passes; do
    "pass_$p"
  done
  echo "ci: all passes green"
else
  "pass_$pass"
  echo "ci: $pass pass green"
fi
