#!/bin/sh
# Snapshots the performance trajectory into a BENCH_<tag>.json at the
# repo root:
#   - the emulator microbenchmarks (micro_emulator), including the
#     snapshot-record overhead and resume-vs-cold pairs,
#   - the staged-pipeline + cache microbenchmarks (micro_compiler),
#   - the end-to-end single-threaded wall time of the fig4 + table3
#     regenerators (the PR-2 acceptance metric; WARIO_JOBS=1 so the
#     number measures artifact reuse, not parallelism),
#   - the verify_crash campaign wall time (single-threaded, best of 3;
#     the campaigns resume injected runs from snapshots, DESIGN.md §7.6),
#   - the serving daemon's throughput: wario_loadgen against an
#     in-process daemon (4 connections x 32 requests, mixed workloads),
#     recording requests/s with p50/p99 latency and the shared cache's
#     hit/miss/eviction counts (the PR-8 acceptance metric),
#   - the checkpoint-strategy columns (docs/STRATEGIES.md): raw
#     executed-checkpoint counts per workload for ratchet / wario /
#     wario-diff / wario-spec, plus the wall time of the
#     WARIO_STRATEGIES=1 table1 regeneration (the PR-9 columns).
#
#   usage: bench/emit_bench_json.sh <build-dir> <tag>
#
# Both arguments are required, so a recording never overwrites a
# committed BENCH_*.json by default. Point build-dir at a Release tree
# (-DCMAKE_BUILD_TYPE=Release): BENCH_pr6.json was recorded from a debug
# build (its context says debug_build=true), so its absolute emulator
# numbers understate the engine.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 <build-dir> <tag>   (writes BENCH_<tag>.json at the repo root)" >&2
  exit 2
fi
ROOT=$(dirname "$0")/..
BUILD=$1
TAG=$2

for bin in micro_emulator micro_compiler fig4_execution_time \
           table1_checkpoint_delta table3_intermittent verify_crash; do
  if [ ! -x "$BUILD/bench/$bin" ]; then
    echo "error: $BUILD/bench/$bin not built (cmake --build $BUILD -j)" >&2
    exit 1
  fi
done
if [ ! -x "$BUILD/tools/wario_loadgen" ]; then
  echo "error: $BUILD/tools/wario_loadgen not built (cmake --build $BUILD -j)" >&2
  exit 1
fi

EMU_JSON=$(mktemp)
COMP_JSON=$(mktemp)
LOADGEN_JSON=""
STRAT_JSON=""
trap 'rm -f "$EMU_JSON" "$COMP_JSON" "$LOADGEN_JSON" "$STRAT_JSON"' EXIT

"$BUILD/bench/micro_emulator" --benchmark_format=json \
  --benchmark_min_time=0.2 > "$EMU_JSON"
"$BUILD/bench/micro_compiler" --benchmark_format=json \
  --benchmark_min_time=0.2 > "$COMP_JSON"

# A non-Release recording understates every number and poisons the
# perf trajectory across PRs (BENCH_pr5.json and BENCH_pr6.json were
# recorded that way). The guard keys on wario_build_type — the build
# type the benchmark binary itself stamps into its context — because
# google-benchmark's library_build_type describes how *libbenchmark*
# was built (the system package is a debug build, so that field says
# "debug" even for a Release tree). Refuse by default;
# WARIO_BENCH_ALLOW_DEBUG=1 records anyway but tags the JSON so
# downstream comparisons can filter it out.
BUILD_TYPE=$(python3 -c \
  "import json,sys; print(json.load(open(sys.argv[1]))['context'].get('wario_build_type','unknown'))" \
  "$EMU_JSON")
if [ "$BUILD_TYPE" != "Release" ]; then
  if [ "${WARIO_BENCH_ALLOW_DEBUG:-0}" != "1" ]; then
    echo "error: micro_emulator was built with CMAKE_BUILD_TYPE='$BUILD_TYPE';" >&2
    echo "  numbers from it are not comparable across PRs. Rebuild with" >&2
    echo "  -DCMAKE_BUILD_TYPE=Release, or set WARIO_BENCH_ALLOW_DEBUG=1" >&2
    echo "  to record anyway (the JSON will be tagged debug_build=true)." >&2
    exit 1
  fi
  echo "warning: recording from a non-Release build; tagging JSON with debug_build=true" >&2
fi

# Best-of-5 end-to-end wall time (cold process each run; min is the
# least load-noise-sensitive wall-clock statistic).
E2E=$(python3 - "$BUILD" <<'EOF'
import subprocess, sys, time, os
build = sys.argv[1]
env = dict(os.environ, WARIO_JOBS="1")
times = []
for _ in range(5):
    t0 = time.monotonic()
    for b in ("fig4_execution_time", "table3_intermittent"):
        subprocess.run([os.path.join(build, "bench", b)], env=env,
                       stdout=subprocess.DEVNULL, check=True)
    times.append(time.monotonic() - t0)
print(f"{min(times):.3f}")
EOF
)

# verify_crash campaign wall time, best-of-3, single-threaded for the
# same reason as the E2E number above.
CRASH=$(python3 - "$BUILD" <<'EOF'
import subprocess, sys, time, os
build = sys.argv[1]
bin = os.path.join(build, "bench", "verify_crash")
env = dict(os.environ, WARIO_JOBS="1")
times = []
for _ in range(3):
    t0 = time.monotonic()
    subprocess.run([bin], env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    times.append(time.monotonic() - t0)
print(f"{min(times):.3f}")
EOF
)

# Serving-daemon throughput: the loadgen spins an in-process daemon on a
# temp socket, drives it with the deterministic request mix, and prints
# one JSON line with requests/s, p50/p99 latency, and cache counters.
# Best-of-3 on rps (cold daemon each run — the steady-state hit rate is
# part of what is measured, so every run starts from an empty cache).
LOADGEN_JSON=$(mktemp)
python3 - "$BUILD" "$LOADGEN_JSON" <<'EOF'
import json, subprocess, sys, os
build, out = sys.argv[1], sys.argv[2]
bin = os.path.join(build, "tools", "wario_loadgen")
best = None
for _ in range(3):
    p = subprocess.run([bin, "--serve", "--connections", "4",
                        "--requests", "32", "--json"],
                       capture_output=True, text=True, check=True)
    r = json.loads(p.stdout)["loadgen"]
    if best is None or r["rps"] > best["rps"]:
        best = r
json.dump(best, open(out, "w"))
EOF

# Checkpoint-strategy columns: one cold WARIO_STRATEGIES=1 table1
# regeneration at WARIO_JOBS=1 (so the wall time measures the strategy
# pipelines + emulation, not parallelism), harvesting the raw
# executed-checkpoint counts the binary prints on stderr.
STRAT_JSON=$(mktemp)
python3 - "$BUILD" "$STRAT_JSON" <<'EOF'
import json, re, subprocess, sys, time, os
build, out = sys.argv[1], sys.argv[2]
bin = os.path.join(build, "bench", "table1_checkpoint_delta")
env = dict(os.environ, WARIO_JOBS="1", WARIO_STRATEGIES="1")
t0 = time.monotonic()
p = subprocess.run([bin], env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.PIPE, text=True, check=True)
wall = time.monotonic() - t0
counts = {}
for line in p.stderr.splitlines():
    m = re.match(r"\[table1-counts\] (\S+) (.*)", line)
    if m:
        counts[m.group(1)] = {k: int(v) for k, v in
                              (kv.split("=") for kv in m.group(2).split())}
json.dump({"wall_s": wall, "counts": counts}, open(out, "w"))
EOF

OUT="$ROOT/BENCH_${TAG}.json"
python3 - "$EMU_JSON" "$COMP_JSON" "$E2E" "$CRASH" "$OUT" \
    "$LOADGEN_JSON" "$STRAT_JSON" <<'EOF'
import json, sys
emu, comp = (json.load(open(p)) for p in sys.argv[1:3])
merged = emu
if merged["context"].get("wario_build_type") != "Release":
    merged["context"]["debug_build"] = True
# google-benchmark's library_build_type describes how the system
# libbenchmark package was built (a debug build on this image), not
# this binary — several PRs' notes had to re-explain the resulting
# "debug" value. When the binary stamps its own wario_build_type,
# rename the field so the JSON can't mislead.
if "wario_build_type" in merged["context"]:
    lbt = merged["context"].pop("library_build_type", None)
    if lbt is not None:
        merged["context"]["libbenchmark_build_type"] = lbt
merged["benchmarks"] += comp["benchmarks"]

merged["benchmarks"].append({
    "name": "fig4_table3_single_thread",
    "run_type": "aggregate",
    "aggregate_name": "min",
    "iterations": 5,
    "real_time": float(sys.argv[3]) * 1e9,
    "time_unit": "ns",
})
merged["benchmarks"].append({
    "name": "verify_crash_single_thread",
    "run_type": "aggregate",
    "aggregate_name": "min",
    "iterations": 3,
    "real_time": float(sys.argv[4]) * 1e9,
    "time_unit": "ns",
})
lg = json.load(open(sys.argv[6]))
merged["benchmarks"].append({
    "name": "serve_loadgen",
    "run_type": "aggregate",
    "aggregate_name": "best_of_3",
    "iterations": lg["requests"],
    "real_time": lg["wall_s"] * 1e9,
    "time_unit": "ns",
    "requests_per_second": lg["rps"],
    "latency_p50_ms": lg["p50_ms"],
    "latency_p99_ms": lg["p99_ms"],
    "connections": lg["connections"],
    "cache_hits": lg["cache_hits"],
    "cache_misses": lg["cache_misses"],
    "cache_evictions": lg["cache_evictions"],
})
st = json.load(open(sys.argv[7]))
merged["benchmarks"].append({
    "name": "strategy_checkpoint_counts",
    "run_type": "aggregate",
    "aggregate_name": "single",
    "iterations": 1,
    "real_time": st["wall_s"] * 1e9,
    "time_unit": "ns",
    "checkpoints_executed": st["counts"],
})
json.dump(merged, open(sys.argv[5], "w"), indent=1)
diffs = st["counts"].get("coremark", {})
print(f"wrote {sys.argv[5]} (fig4+table3 single-thread: {sys.argv[3]}s; "
      f"verify_crash {sys.argv[4]}s; "
      f"loadgen {lg['rps']} req/s, p50 {lg['p50_ms']}ms, "
      f"p99 {lg['p99_ms']}ms; strategy table1 {st['wall_s']:.3f}s, "
      f"coremark ckpts {diffs})")
EOF
