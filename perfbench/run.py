#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
WARio libraries from ../src plus the perfbench binary in Release mode
under $CARGO_TARGET_DIR (default .bench_build); later calls only check
the build is up to date. The binary's stdout passes through unchanged:
a report line, then the result line {"correct", "attempted", "failed",
"metrics"}.

After each run, the deterministic numbers (the gen_* metrics and the
per-layer work counts) are compared with earlier runs of the same build:
the gen_* metrics must agree across all workloads and seeds, and the
counts across runs of one (workload, seed) -- and across seeds too for
the workloads whose counts are defined over the fixed population. A
disagreement marks the run incorrect.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile_matrix", "emulate_intermittent", "crash_campaign",
             "serve_mixed")
# crash_campaign's stratified crash points are drawn from the seed, so
# its verify counts are compared per seed only.
SEED_DEPENDENT_COUNTS = {"crash_campaign"}
GEN_METRICS = ("gen_overhead_vs_plainc", "gen_checkpoints", "gen_text_bytes")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures once, then brings the Release build up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    out = sys.stderr
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(bdir), "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=out, stderr=out, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench",
                    "-j", jobs], stdout=out, stderr=out, check=True)
    return bdir / "perfbench"


def revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_determinism(store_path, binary, args, report, result):
    """Compares this run's deterministic numbers with earlier runs."""
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    digest = file_digest(binary)
    if store.get("binary") != digest:
        store = {"binary": digest, "gen": None, "counts": {}}
    problems = []

    metrics = result.get("metrics", {})
    gen = {k: metrics[k]["value"] for k in GEN_METRICS if k in metrics}
    if gen:
        if store["gen"] is None:
            store["gen"] = gen
        elif store["gen"] != gen:
            problems.append(f"gen metrics {gen} differ from {store['gen']}")

    counts = {k: v["value"] for k, v in report.get("counts", {}).items()}
    keys = [f"{args.workload}/seed{args.seed}"]
    if args.workload not in SEED_DEPENDENT_COUNTS:
        keys.append(args.workload)
    for key in keys:
        seen = store["counts"].setdefault(key, counts)
        if seen != counts:
            diff = sorted(k for k in set(seen) | set(counts)
                          if seen.get(k) != counts.get(k))
            problems.append(f"counts differ from an earlier {key} run: "
                            + ", ".join(diff))
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no WARio sources under {ROOT / 'src'}; run from a full "
             "checkout")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    workdir = bdir / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    env = {k: v for k, v in os.environ.items() if not k.startswith("WARIO_")}
    # Relative to the repository root, where the binary runs: the daemon's
    # socket lives there, and socket paths are limited to about 100 bytes.
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--workdir", os.path.relpath(workdir, ROOT),
           "--revision", revision()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out)
        fail(f"perfbench exited with code {proc.returncode}")
    report = json.loads(lines[-2]).get("perfbench", {})
    result = json.loads(lines[-1])

    problems = check_determinism(bdir / "determinism.json", binary, args,
                                 report, result)
    for p in problems:
        print(f"perfbench: determinism check FAILED: {p}", file=sys.stderr)
    result["attempted"] += 1
    if problems:
        result["correct"] = False
        result["failed"] += 1
    lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
