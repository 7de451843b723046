#!/usr/bin/env python3
"""CI gate: fail when a gated hot-path benchmark regresses vs the baseline.

Absolute items_per_second numbers are machine-dependent, so the gate
compares a machine-independent quantity: the speedup ratio of the current
implementation over its legacy counterpart compiled into the same binary,
measured in the same run on the same hardware. Gated pairs (new=legacy):

  BM_EventQueueScheduleRun = BM_LegacyEventQueueScheduleRun
  BM_HostAckPath           = BM_LegacyHostAckPath

(The PDES bench JSON is gated with explicit --pair flags instead:
BM_FatTreePoint=BM_FatTreePointSerial for the degenerate-partition
overhead, BM_FatTreePointStreamed=BM_FatTreePoint for the streamed-vs-
eager injection overhead at domains=1, and
BM_WindowBarrier=BM_LegacyWindowPair for the window-coordination cycle —
see the CI workflow.)

The current run's ratio must stay within the threshold (default 20%) of
the committed baseline's ratio for every benchmark arg present in both
files. Repeated --pair NEW=LEGACY options REPLACE the default pair
set (argparse append semantics) — when adding a pair, restate the
defaults too, or edit DEFAULT_PAIRS in this script.

Required families: every gated family (both sides of each pair) plus the
standalone families listed in --require (default BM_SwitchForward,
BM_FctSink, BM_StreamingLaunch, BM_FnccAckProcessing, BM_HpccAckProcessing)
must be present in BOTH files. A gated benchmark that silently vanishes from the
current JSON is an error, not a pass — a deleted or renamed benchmark must
be removed from the gate deliberately.

Usage:
  scripts/check_bench_regression.py BASELINE.json CURRENT.json \
      [--threshold 0.20] [--pair NEW=LEGACY ...] [--require FAMILY ...]

The current run must include the new and the legacy benchmarks of every
pair plus the required families, e.g.
  --benchmark_filter='EventQueueScheduleRun|HostAckPath|SwitchForward|FctSink|StreamingLaunch|FnccAckProcessing|HpccAckProcessing'

Wall-time entries (benchmark names containing 'WallTime' / 'wall_time')
are only comparable between runs that used the same thread count. Both
files carry an `fncc_threads` context entry (stamped by
bench/run_benches.sh); when the two counts differ, wall-time entries are
dropped from the comparison with a note instead of producing a bogus
verdict.

Build provenance is checked on BOTH files before any comparison: a file
whose fncc_build_type is not Release/RelWithDebInfo is always refused,
and a file recorded against a debug-built google-benchmark library is
refused unless it carries the fncc_debug_bench_lib_ack stamp (recorded
via FNCC_ALLOW_DEBUG_BENCH_LIB=1) or --allow-debug-library is given.

This gate reads Google-Benchmark JSON only. The BENCH_<figure>.json
sweep-meta files the fig benches write (top-level `threads` /
`wall_time_seconds`, no `benchmarks` array) are pure telemetry with no
machine-independent ratio to gate on; passing one here is rejected with
an explanatory error rather than a misleading "no pairs" message.
"""

import argparse
import json
import sys

DEFAULT_PAIRS = [
    "BM_EventQueueScheduleRun=BM_LegacyEventQueueScheduleRun",
    "BM_HostAckPath=BM_LegacyHostAckPath",
]
# BM_FctSink / BM_StreamingLaunch are presence-gated only: the streaming
# FCT pipeline has no legacy in-binary counterpart to form a
# machine-independent ratio with, but the benches silently vanishing from
# a recording must still fail the gate. The same holds for the per-ACK CC
# microbenches, which the end-to-end benchmark's cc.ack_ns.* metrics read
# by name.
DEFAULT_REQUIRED = ["BM_SwitchForward", "BM_FctSink", "BM_StreamingLaunch",
                    "BM_FnccAckProcessing", "BM_HpccAckProcessing"]


def is_wall_time(name: str) -> bool:
    lowered = name.lower()
    return "walltime" in lowered or "wall_time" in lowered


def check_provenance(path: str, context: dict, allow_debug: bool) -> None:
    """Refuses files with unusable build provenance, baselines included.

    Two independent stamps (both written by bench/run_benches.sh):
      - fncc_build_type: how THIS project was compiled. Anything but
        Release/RelWithDebInfo is meaningless as a baseline or a current
        run -- hard refusal, no override.
      - library_build_type: how the system google-benchmark library was
        compiled. Distro packages are frequently debug; the library is
        outside the measured loop so within-binary ratios stay valid, but
        such a file must carry the explicit fncc_debug_bench_lib_ack
        acknowledgement run_benches.sh stamps under
        FNCC_ALLOW_DEBUG_BENCH_LIB=1 (or the gate must be run with
        --allow-debug-library). Unacknowledged debug-library files --
        including committed baselines -- are refused.
    """
    fncc_bt = str(context.get("fncc_build_type", "")).strip()
    if fncc_bt not in ("Release", "RelWithDebInfo"):
        raise SystemExit(
            f"error: {path} has fncc_build_type={fncc_bt or 'missing'!r}; "
            f"only Release/RelWithDebInfo runs are gateable -- regenerate "
            f"with bench/run_benches.sh from a Release build")
    lib_bt = str(context.get("library_build_type", "release")).strip()
    if lib_bt != "release" and not allow_debug:
        ack = str(context.get("fncc_debug_bench_lib_ack", "0")).strip()
        if ack != "1":
            raise SystemExit(
                f"error: {path} was recorded against a "
                f"library_build_type={lib_bt!r} google-benchmark without "
                f"the fncc_debug_bench_lib_ack stamp; refusing it (baseline "
                f"or current). Regenerate with a Release-built "
                f"google-benchmark, or acknowledge at record time with "
                f"FNCC_ALLOW_DEBUG_BENCH_LIB=1 bench/run_benches.sh, or "
                f"pass --allow-debug-library")


def load_bench_file(path: str, allow_debug: bool) -> tuple[dict[str, float], str]:
    """Returns ({name: items_per_second}, fncc_threads context value)."""
    with open(path) as f:
        data = json.load(f)
    if "benchmarks" not in data:
        kind = (f"fig-sweep meta for {data['figure']!r}"
                if "figure" in data else "unrecognized")
        raise SystemExit(
            f"error: {path} is not Google-Benchmark JSON ({kind}); this "
            f"gate compares BENCH_micro.json-style files -- sweep-meta "
            f"wall times are telemetry, not gateable ratios")
    check_provenance(path, data.get("context", {}), allow_debug)
    out = {}
    for bench in data.get("benchmarks", []):
        if "items_per_second" in bench:
            out[bench.get("name", "")] = float(bench["items_per_second"])
    threads = str(data.get("context", {}).get("fncc_threads", "1"))
    return out, threads


def has_family(ips: dict[str, float], family: str) -> bool:
    """True when `family` appears bare or with an /arg suffix."""
    return family in ips or any(n.startswith(family + "/") for n in ips)


def check_required(ips: dict[str, float], families: list[str],
                   path: str) -> list[str]:
    return [f"error: gated benchmark family '{fam}' is missing from {path}; "
            f"a vanished benchmark must not pass silently -- rerun with a "
            f"filter covering it, or deliberately remove it from the gate"
            for fam in families if not has_family(ips, fam)]


def speedup_ratios(ips: dict[str, float], pattern: str,
                   legacy_pattern: str) -> dict[str, float]:
    """arg suffix ('/64', ...) -> new items/sec over legacy items/sec."""
    ratios = {}
    for name, value in ips.items():
        if name.startswith(pattern + "/"):
            arg = name[len(pattern):]
            legacy = ips.get(legacy_pattern + arg)
            if legacy:
                ratios[arg] = value / legacy
    return ratios


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="maximum tolerated fractional drop in the "
                             "new-vs-legacy speedup ratio")
    parser.add_argument("--pair", action="append", metavar="NEW=LEGACY",
                        help="gated new=legacy family pair (repeatable); "
                             "REPLACES the defaults -- restate them when "
                             f"adding: {', '.join(DEFAULT_PAIRS)}")
    parser.add_argument("--require", action="append", metavar="FAMILY",
                        help="standalone family that must exist in both "
                             "files (repeatable); REPLACES the default: "
                             f"{', '.join(DEFAULT_REQUIRED)}")
    parser.add_argument("--allow-debug-library", action="store_true",
                        help="accept files recorded against a debug-built "
                             "google-benchmark library even without the "
                             "fncc_debug_bench_lib_ack stamp (ratios are "
                             "within-binary and library-independent)")
    args = parser.parse_args()

    pairs = []
    for spec in (args.pair if args.pair else DEFAULT_PAIRS):
        if "=" not in spec:
            print(f"error: --pair expects NEW=LEGACY, got {spec!r}",
                  file=sys.stderr)
            return 2
        new, legacy = spec.split("=", 1)
        pairs.append((new, legacy))
    required = [fam for p in pairs for fam in p]
    required += (args.require if args.require else DEFAULT_REQUIRED)

    base_ips, base_threads = load_bench_file(args.baseline,
                                             args.allow_debug_library)
    cur_ips, cur_threads = load_bench_file(args.current,
                                           args.allow_debug_library)
    if base_threads != cur_threads:
        dropped = sorted(n for n in (set(base_ips) | set(cur_ips))
                         if is_wall_time(n))
        base_ips = {n: v for n, v in base_ips.items() if not is_wall_time(n)}
        cur_ips = {n: v for n, v in cur_ips.items() if not is_wall_time(n)}
        print(f"note: fncc_threads differs (baseline={base_threads}, "
              f"current={cur_threads}); ignoring "
              f"{len(dropped)} wall-time entr{'y' if len(dropped) == 1 else 'ies'}"
              + (f": {', '.join(dropped)}" if dropped else ""))

    missing = (check_required(base_ips, required, args.baseline) +
               check_required(cur_ips, required, args.current))
    if missing:
        for line in missing:
            print(line, file=sys.stderr)
        return 2

    failed = False
    for pattern, legacy_pattern in pairs:
        base = speedup_ratios(base_ips, pattern, legacy_pattern)
        cur = speedup_ratios(cur_ips, pattern, legacy_pattern)
        # Arg suffixes may carry modifier tails ('/2/real_time' from
        # UseRealTime benchmarks like BM_WindowBarrier); sort on the
        # leading numeric arg only.
        common = sorted(set(base) & set(cur),
                        key=lambda a: int(a.lstrip("/").split("/")[0]))
        if not common:
            print(f"error: no {pattern} + {legacy_pattern} arg pairs shared "
                  f"between {args.baseline} and {args.current}",
                  file=sys.stderr)
            return 2
        for arg in common:
            rel = cur[arg] / base[arg]
            status = "ok"
            if rel < 1.0 - args.threshold:
                status = "REGRESSION"
                failed = True
            print(f"{pattern}{arg:8s} new-vs-legacy speedup: "
                  f"baseline {base[arg]:5.2f}x  current {cur[arg]:5.2f}x  "
                  f"({rel:5.2f} of baseline)  {status}")
    if failed:
        print(f"\nFAIL: speedup dropped beyond {args.threshold:.0%} tolerance",
              file=sys.stderr)
        return 1
    print(f"\nPASS: all within {args.threshold:.0%} of baseline speedup")
    return 0


if __name__ == "__main__":
    sys.exit(main())
