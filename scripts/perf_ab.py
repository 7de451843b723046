#!/usr/bin/env python3
"""Paired A/B of the end-to-end benchmark: a git revision against the
working tree.

    scripts/perf_ab.py [--rev REV] [--pairs N] [--workloads W,...]
                       [--seed S] [--scratch DIR]

Run from the root of a checkout. A is REV (default HEAD), extracted with
`git archive` into SCRATCH/a; B is the working tree as it stands,
uncommitted changes included. Each side is built once, into its own
CARGO_TARGET_DIR under SCRATCH. Then, per workload, N pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

run in ABBA order (A B, B A, A B, ...), so that a drift in the box's speed
falls on both sides alike. T is BENCHMARK.json's run_seconds, the run
length the benchmark defines. Each run's last stdout line is its JSON result;
a run that fails its checks stops the script.

For every workload and every end-to-end metric BENCHMARK.json lists, the
script prints the median of the per-pair ratios B/A, a bootstrap 95%
interval of that median (resampling pairs), how many pairs B won, and a
verdict against the metric's bound: "worse" when the median ratio is
worse than the bound allows; "unresolved" when A's own runs spread wider
than the bound (interquartile range over median) and not every B run
beats every A run; "better" only under the rule for claiming a gain — at
least 10 pairs, B winning at least 9 in 10 of them, and B's median ahead
of A's by more than A's interquartile range; "noise" otherwise. A
provenance line (box, compiler, revisions, pairs) closes the report.

The script reads perfbench/ and BENCHMARK.json and writes only under
SCRATCH (default /tmp/perf_ab), which must lie outside the checkout:
SCRATCH/a is deleted and re-extracted on every run, perf_ab_runs.json
keeps every run's metrics and perf_ab.log every command's output.
"""
import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cmd, cwd, env=None, log=None):
    out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                         text=True)
    if log is not None:
        with open(log, "a") as f:
            f.write("$ %s\n%s%s" % (" ".join(cmd), out.stdout, out.stderr))
    if out.returncode != 0:
        sys.exit("perf_ab: %s failed in %s (exit %d):\n%s%s" % (
            " ".join(cmd), cwd, out.returncode, out.stdout[-2000:],
            out.stderr[-2000:]))
    return out.stdout


def git(*args):
    return run(["git"] + list(args), ROOT).strip()


def build(tree, target_dir, jobs, log):
    """Builds the tree's benchmark binaries the way perfbench/run.py does,
    so that no timed run pays for a build."""
    if not os.path.exists(os.path.join(target_dir, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
             target_dir], tree, log=log)
    run(["cmake", "--build", target_dir, "-j", str(jobs)], tree, log=log)


def bench(tree, target_dir, workload, seed, seconds, log):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    out = run([sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace",
               "0"], tree, env=env, log=log)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        sys.exit("perf_ab: no JSON result from %s run in %s" % (workload,
                                                                 tree))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("perf_ab: %s run in %s failed its checks" % (workload, tree))
    provenance = {}
    for l in out.splitlines():
        if l.startswith("provenance: "):
            provenance = json.loads(l[len("provenance: "):])
    return {k: v["value"] for k, v in result["metrics"].items()}, provenance


def bootstrap_median(ratios, rng, draws=2000):
    medians = sorted(
        statistics.median(rng.choice(ratios) for _ in ratios)
        for _ in range(draws))
    return medians[int(0.025 * draws)], medians[int(0.975 * draws) - 1]


# The rule for claiming a gain: at least this many pairs, B winning at
# least WIN_SHARE of them, and the medians apart by more than A's IQR.
MIN_GAIN_PAIRS = 10
WIN_SHARE = 0.9


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def spread(values):
    """Interquartile range over median."""
    med = statistics.median(values)
    return iqr(values) / med if med else 0.0


def wins(pairs, better):
    """Pairs in which B beat A."""
    if better == "lower":
        return sum(1 for a, b in pairs if b < a)
    return sum(1 for a, b in pairs if b > a)


def verdict(pairs, median, better, bound):
    # Ratio B/A; for a lower-is-better metric a ratio below 1 is a gain.
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    if better == "lower":
        if median > 1 + bound:
            return "worse"
        all_better = max(b) < min(a)
        ahead = statistics.median(a) - statistics.median(b)
    else:
        if median < 1 - bound:
            return "worse"
        all_better = min(b) > max(a)
        ahead = statistics.median(b) - statistics.median(a)
    if spread(a) > bound and not all_better:
        return "unresolved"
    if (len(pairs) >= MIN_GAIN_PAIRS and
            wins(pairs, better) >= WIN_SHARE * len(pairs) and
            ahead > iqr(a)):
        return "better"
    return "noise"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rev", default="HEAD", help="side A (default HEAD)")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--workloads", default="",
                    help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scratch", default="/tmp/perf_ab")
    ap.add_argument("--jobs", type=int, default=3, help="build parallelism")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    rev = git("rev-parse", args.rev)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    scratch = os.path.realpath(args.scratch)
    tree_a = os.path.join(scratch, "a")
    root = os.path.realpath(ROOT)
    if (os.path.commonpath([scratch, root]) == root or
            os.path.commonpath([tree_a, root]) == tree_a):
        sys.exit("perf_ab: --scratch %s must lie outside the checkout %s "
                 "(its a/ subdirectory is deleted on every run)" % (
                     scratch, root))
    os.makedirs(scratch, exist_ok=True)
    log = os.path.join(scratch, "perf_ab.log")
    shutil.rmtree(tree_a, ignore_errors=True)
    os.makedirs(tree_a)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", tree_a], input=archive, check=True)
    sides = {"A": (tree_a, os.path.join(scratch, "a_build")),
             "B": (ROOT, os.path.join(scratch, "b_build"))}
    for tree, target in sides.values():
        build(tree, target, args.jobs, log)

    rng = random.Random(args.seed)
    provenance = {}
    rows = []
    all_runs = {}
    for w in workloads:
        runs = all_runs[w] = {"A": [], "B": []}
        for i in range(args.pairs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                tree, target = sides[side]
                values, prov = bench(tree, target, w, args.seed, seconds,
                                     log)
                runs[side].append(values)
                if side == "B":
                    provenance = prov
                print("  %s pair %d %s wall_s %.3f" % (
                    w, i + 1, side, values.get("wall_s", float("nan"))),
                    file=sys.stderr, flush=True)
        for m in metrics:
            name = m["name"]
            pairs = [(a[name], b[name]) for a, b in zip(runs["A"], runs["B"])
                     if name in a and name in b and a[name] > 0]
            if not pairs:
                continue
            ratios = [b / a for a, b in pairs]
            med = statistics.median(ratios)
            lo, hi = bootstrap_median(ratios, rng)
            rows.append((w, name, statistics.median(a for a, _ in pairs),
                         statistics.median(b for _, b in pairs), med, lo, hi,
                         "%d/%d" % (wins(pairs, m["better"]), len(pairs)),
                         verdict(pairs, med, m["better"], m["bound"]),
                         m["bound"]))

    with open(os.path.join(scratch, "perf_ab_runs.json"), "w") as f:
        json.dump({"rev": rev, "runs": all_runs}, f, indent=1)
    print("%-22s %-18s %12s %12s %8s %17s %7s  %s" % (
        "workload", "metric", "A median", "B median", "B/A", "95% CI",
        "B wins", "verdict (bound)"))
    for w, name, a, b, med, lo, hi, won, v, bound in rows:
        print("%-22s %-18s %12.5g %12.5g %8.3f   [%.3f, %.3f] %7s  %s (%g)" % (
            w, name, a, b, med, lo, hi, won, v, bound))
    worse = [r for r in rows if r[8] == "worse"]
    print("provenance: %s; %d CPUs; %s; A = %s, B = working tree over %s%s; "
          "%d ABBA pairs x %g s per run, seed %d; %s" % (
              cpu_model(), os.cpu_count() or 1,
              provenance.get("compiler", "compiler unknown"), rev[:12],
              git("rev-parse", "HEAD")[:12],
              " (uncommitted changes)" if dirty else "", args.pairs,
              seconds, args.seed, time.strftime("%Y-%m-%d")))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
