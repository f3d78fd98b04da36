#!/usr/bin/env python3
"""Same-run A/B of the repository benchmark: a base revision against the
working tree.

    python3 tools/ab.py <base-rev> [--pairs 10] [--traced-pairs 1]
        [--seconds 12] [--first-seed 1000] [--workloads compile_matrix,...]
        [--out BENCH_prN.json] [--workdir .bench_build/ab]

Run from anywhere inside the repository. The base revision is exported
with `git archive` into <workdir>/base (no worktree is registered), and
each side builds its own perfbench under its own CARGO_TARGET_DIR
(<workdir>/base-build and <workdir>/candidate-build); the candidate is
the working tree as it is, uncommitted changes included. Each side first
makes one discarded one-second run, which builds it and warms it up.

Then, per workload of BENCHMARK.json, N pairs of untraced
`perfbench/run.py` runs follow on seeds first-seed .. first-seed+N-1,
alternating which side runs first, and then --traced-pairs pairs of
traced runs (default one) on the first of those seeds, in the same
order. For every end-to-end metric the report gives each side's median
[Q1, Q3], the candidate/base ratio of medians, the pairs the candidate
won, whether the medians differ by more than the base's interquartile
range (IQR), and a verdict against the metric's BENCHMARK.json bound:
`worse` when the candidate median is worse than the base median by more
than the bound (relative, in the metric's `better` direction),
`unresolved` when the base IQR is wider than the bound times the base
median and not every candidate run beats every base run (the runs are
too spread to tell), `ok` otherwise. The report ends with one line
naming every `worse` and `unresolved` metric. Below the end-to-end
table it gives each side's median [Q1, Q3] of every metric the timed
runs' report lines carry under `named` (the workload's own metrics,
such as serve_mixed's serve.hit_p50_ms and serve.miss_p50_ms) and the
ratio of medians; these have no direction or bound in BENCHMARK.json.
It also compares each pair's report-line `counts` (perfbench's
deterministic per-layer work counts, equal for equal seeds when both
sides do the same work) and prints `counts identical (N seeds)` or
every count that differs, with its seed and both values.
For each per-layer time of the traced runs (every BENCHMARK.json
per_layer metric in seconds but the trace.* totals) it gives the median
seconds per operation, after both sides' median operation count and
set-up repetitions. A
layer that runs only in set-up (the oracle; the compiler on
emulate_intermittent and crash_campaign) grows with the set-up
repetitions but is divided by the operations, so its per-op time is not
comparable across sides. One
traced run per side is at the mercy of the host's noise; take several
to compare layers. Pick seeds you did not use while developing the change. The
JSON written to --out holds every run's values, all per-layer metrics
included.

The script only reads perfbench/ and BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(msg):
    print(f"ab: {msg}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args),
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev, dest):
    """Exports the tree of commit `rev` into `dest` (once per commit)."""
    stamp = dest / ".ab-revision"
    if stamp.is_file() and stamp.read_text() == rev:
        return
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    tree = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                          capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tree, check=True)
    stamp.write_text(rev)


def run(side, workload, seed, seconds, trace):
    """One perfbench/run.py call; returns (report, result) or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(side["build"]))
    cmd = [sys.executable, str(side["src"] / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side["src"], env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        print(f"ab: {side['name']} {workload} seed {seed} failed "
              f"(exit {proc.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def interleave(sides, seeds):
    """Yields (pair index, seed, side), alternating which side goes first."""
    for i, seed in enumerate(seeds):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            yield i, seed, side


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def spread(unit, base, cand):
    """Each side's median [Q1, Q3] of one metric, and the ratio of
    medians; None unless both sides have a value."""
    out = {"unit": unit}
    for name, runs in (("base", base), ("candidate", cand)):
        xs = [v for v in runs if v is not None]
        if not xs:
            return None
        q1, med, q3 = quartiles(xs)
        out[name] = {"median": med, "q1": q1, "q3": q3, "runs": runs}
    bmed = out["base"]["median"]
    out["ratio"] = out["candidate"]["median"] / bmed if bmed else None
    return out


def summarize(metric, base, cand):
    """Medians, quartiles, wins and the IQR test for one metric."""
    s = spread(metric["unit"], base, cand)
    if s is None:
        return None
    higher = metric["better"] == "higher"
    pairs = [(x, y) for x, y in zip(base, cand)
             if x is not None and y is not None]
    b, c = s["base"], s["candidate"]
    s.update({
        "better": metric["better"],
        "wins": sum(1 for x, y in pairs if (y > x if higher else y < x)),
        "pairs": len(pairs),
        "beyond_base_iqr": abs(c["median"] - b["median"]) > b["q3"] - b["q1"],
    })
    return s


def compare_counts(seeds, base, cand):
    """Every report-line count a pair's two runs disagree on; pairs
    with a failed run are not compared."""
    differences = []
    compared = 0
    for seed, b, c in zip(seeds, base, cand):
        if b is None or c is None:
            continue
        compared += 1
        for name in sorted(set(b) | set(c)):
            if b.get(name) != c.get(name):
                differences.append({"seed": seed, "count": name,
                                    "base": b.get(name),
                                    "candidate": c.get(name)})
    return {"seeds": compared, "identical": compared > 0 and not differences,
            "differences": differences}


def verdict(metric, s):
    """`worse`, `unresolved` or `ok` for one end-to-end metric's summary,
    judged against the metric's relative bound (module docstring)."""
    bound = metric["bound"]
    higher = metric["better"] == "higher"
    b, c = s["base"], s["candidate"]
    if (c["median"] < b["median"] * (1 - bound) if higher
            else c["median"] > b["median"] * (1 + bound)):
        return "worse"
    bs = [v for v in b["runs"] if v is not None]
    cs = [v for v in c["runs"] if v is not None]
    dominates = min(cs) > max(bs) if higher else max(cs) < min(bs)
    if b["q3"] - b["q1"] > bound * abs(b["median"]) and not dominates:
        return "unresolved"
    return "ok"


def fmt(v):
    if v is None:
        return "-"
    if abs(v) >= 1000:
        return f"{v:,.0f}"
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="base revision (any git commit-ish)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--traced-pairs", type=int, default=1,
                    help="traced runs per side, interleaved like the pairs "
                         "on the first seeds")
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset of BENCHMARK.json's")
    ap.add_argument("--out", default=None,
                    help="JSON output (default: no file)")
    ap.add_argument("--workdir", default=str(ROOT / ".bench_build" / "ab"))
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or int(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = set(wanted) - set(workloads)
        if unknown:
            fail(f"unknown workloads: {', '.join(sorted(unknown))}")
        workloads = [w for w in workloads if w in wanted]
    if args.pairs < 1 or seconds < 1 or args.traced_pairs < 0:
        fail("--pairs and --seconds must be positive")
    if args.traced_pairs > args.pairs:
        fail("--traced-pairs may not exceed --pairs")
    layer_times = [m["name"] for m in bench["per_layer"]
                   if m["unit"] == "s" and not m["name"].startswith("trace.")]

    try:
        base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
        head_rev = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except subprocess.CalledProcessError as e:
        fail(f"git failed: {e.stderr.strip()}")
    work = Path(args.workdir).resolve()
    export(base_rev, work / "base")
    sides = [
        {"name": "base", "src": work / "base", "build": work / "base-build"},
        {"name": "candidate", "src": ROOT,
         "build": work / "candidate-build"},
    ]
    for side in sides:
        print(f"ab: building {side['name']} under {side['build']}",
              file=sys.stderr)
        if run(side, workloads[0], args.first_seed - 1, 1, 0) is None:
            fail(f"{side['name']} does not build or run")

    seeds = [args.first_seed + i for i in range(args.pairs)]
    traced_seeds = seeds[:args.traced_pairs]
    out = {
        "tool": "tools/ab.py",
        "base": base_rev,
        "candidate": head_rev + (" + uncommitted changes" if dirty else ""),
        "protocol": {
            "pairs": args.pairs, "seconds": seconds, "seeds": seeds,
            "order": "alternating; base runs first in pairs 1, 3, 5, ...",
            "traced_seeds": traced_seeds,
        },
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "processor": cpu_model()},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    flagged = {"worse": [], "unresolved": []}
    for workload in workloads:
        values = {"base": [], "candidate": []}
        named = {"base": [], "candidate": []}
        work = {"base": [], "candidate": []}
        counts = {s["name"]: {"attempted": 0, "failed": 0} for s in sides}
        for i, seed, side in interleave(sides, seeds):
            print(f"ab: {workload} pair {i + 1}/{args.pairs} "
                  f"{side['name']} seed {seed}", file=sys.stderr)
            got = run(side, workload, seed, seconds, 0)
            c = counts[side["name"]]
            if got is None:
                c["attempted"] += 1
                c["failed"] += 1
                values[side["name"]].append({})
                named[side["name"]].append({})
                work[side["name"]].append(None)
                continue
            report, result = got
            c["attempted"] += result["attempted"]
            c["failed"] += result["failed"]
            values[side["name"]].append(
                {k: v["value"] for k, v in result["metrics"].items()})
            named[side["name"]].append(report.get("named") or {})
            work[side["name"]].append({
                k: v["value"] for k, v in (report.get("counts") or {}).items()})
        entry = {"runs": counts,
                 "counts": compare_counts(seeds, work["base"],
                                          work["candidate"]),
                 "end_to_end": {}, "named": {}, "trace": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            s = summarize(metric, [r.get(name) for r in values["base"]],
                          [r.get(name) for r in values["candidate"]])
            if s:
                s["bound"] = metric["bound"]
                s["verdict"] = verdict(metric, s)
                entry["end_to_end"][name] = s
                if s["verdict"] != "ok":
                    flagged[s["verdict"]].append(f"{workload}/{name}")
        units = {k: v["unit"] for r in named["base"] + named["candidate"]
                 for k, v in r.items()}
        for name, unit in sorted(units.items()):
            runs = {side: [r[name]["value"] if name in r else None
                           for r in named[side]] for side in named}
            entry["named"][name] = spread(unit, runs["base"],
                                          runs["candidate"])

        # Layer times are compared per operation: the faster side fits
        # more operations into the same run length.
        traces = {"base": [], "candidate": []}
        for i, seed, side in interleave(sides, traced_seeds):
            print(f"ab: {workload} traced {i + 1}/{args.traced_pairs} "
                  f"{side['name']} seed {seed}", file=sys.stderr)
            got = run(side, workload, seed, seconds, 1)
            if got is None:
                traces[side["name"]].append(None)
                continue
            report, result = got
            layers = {k: v["value"] for k, v in result["metrics"].items()}
            ops = report.get("ops") or 0
            traces[side["name"]].append({
                "ops": ops,
                "setup_reps": len(report.get("setup_reps_s") or []),
                "metrics": layers,
                "self_s_per_op": {k: layers[k] / ops for k in layer_times
                                  if k in layers and ops},
            })
        entry["trace"]["runs"] = traces
        per_op = {}
        for run_ in traces["base"] + traces["candidate"]:
            for name in (run_ or {}).get("self_s_per_op", {}):
                per_op[name] = {"better": "lower", "unit": "s"}
        entry["trace"]["self_s_per_op"] = {
            name: summarize(metric,
                            [(r or {}).get("self_s_per_op", {}).get(name)
                             for r in traces["base"]],
                            [(r or {}).get("self_s_per_op", {}).get(name)
                             for r in traces["candidate"]])
            for name, metric in sorted(per_op.items())}
        out["workloads"][workload] = entry
        print_workload(workload, entry)

    out["verdicts"] = flagged
    print("\nworse than bound: " + (", ".join(flagged["worse"]) or "none")
          + "; unresolved: " + (", ".join(flagged["unresolved"]) or "none"))
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
        print(f"ab: wrote {args.out}", file=sys.stderr)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def print_workload(workload, entry):
    runs = entry["runs"]
    print(f"\n{workload}: failed base {runs['base']['failed']}/"
          f"{runs['base']['attempted']}, candidate "
          f"{runs['candidate']['failed']}/{runs['candidate']['attempted']}")
    work = entry["counts"]
    if work["identical"]:
        print(f"  counts identical ({work['seeds']} seeds)")
    elif not work["differences"]:
        print("  counts not compared (no pair ran on both sides)")
    else:
        print(f"  counts differ ({work['seeds']} seeds compared):")
        for d in work["differences"]:
            print(f"    seed {d['seed']} {d['count']}: base {fmt(d['base'])}, "
                  f"candidate {fmt(d['candidate'])}")
    print(f"  {'metric':<24}{'base median [Q1, Q3]':<34}"
          f"{'candidate median [Q1, Q3]':<34}{'ratio':>7}{'wins':>7}  >IQR"
          "  verdict")
    for name, s in entry["end_to_end"].items():
        b, c = s["base"], s["candidate"]
        print(f"  {name:<24}"
              f"{fmt(b['median']) + ' [' + fmt(b['q1']) + ', ' + fmt(b['q3']) + ']':<34}"
              f"{fmt(c['median']) + ' [' + fmt(c['q1']) + ', ' + fmt(c['q3']) + ']':<34}"
              f"{fmt(s['ratio']):>7}{str(s['wins']) + '/' + str(s['pairs']):>7}"
              f"  {'yes' if s['beyond_base_iqr'] else 'no':<5}{s['verdict']}")
    shown = {k: s for k, s in entry["named"].items() if s}
    if shown:
        print("  report-line named metrics, median [Q1, Q3]:")
    for name, s in shown.items():
        b, c = s["base"], s["candidate"]
        print(f"  {name:<24}"
              f"{fmt(b['median']) + ' [' + fmt(b['q1']) + ', ' + fmt(b['q3']) + ']':<34}"
              f"{fmt(c['median']) + ' [' + fmt(c['q1']) + ', ' + fmt(c['q3']) + ']':<34}"
              f"{fmt(s['ratio']):>7}  {s['unit']}")
    per_op = entry["trace"]["self_s_per_op"]
    if per_op:
        traced = entry["trace"]["runs"]

        def median_of(side, key):
            xs = [r[key] for r in traced[side] if r]
            return fmt(statistics.median(xs)) if xs else "-"

        print("  traced runs, median operations / set-up repetitions: "
              f"base {median_of('base', 'ops')} / "
              f"{median_of('base', 'setup_reps')}, candidate "
              f"{median_of('candidate', 'ops')} / "
              f"{median_of('candidate', 'setup_reps')}")
        print("  note: per-op times of layers that run only in set-up (the "
              "oracle; the compiler on emulate_intermittent and "
              "crash_campaign) are not comparable across sides")
        print("  traced layer time per operation (ms), median of "
              f"{len(traced['base'])} run(s) per side:")
        for name, t in per_op.items():
            if not t or not (t["base"]["median"] or t["candidate"]["median"]):
                continue
            b, c = t["base"]["median"], t["candidate"]["median"]
            print(f"    {name:<22}{b * 1e3:>10.4f}{c * 1e3:>10.4f}"
                  f"{(b / c if c else float('inf')):>8.2f}x"
                  f"{str(t['wins']) + '/' + str(t['pairs']):>7}")


if __name__ == "__main__":
    main()
