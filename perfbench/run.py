#!/usr/bin/env python3
"""End-to-end benchmark of the shipped fncc_run on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the simulator from
the checkout's sources (Release, perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build); later calls only re-check it.

--trace 0 repeats the workload's fncc_run invocation for --seconds and
reports the end-to-end metrics as medians over the repetitions.
--trace 1 is the traced pass: one untraced and one traced invocation, the
reference configurations the outputs must match byte for byte, the runs the
exec/stats ratios need, and the micro-benchmark families of each layer. It
reports the per-layer metrics and the tracing overhead.

Every invocation is checked: exit status 0, every flow completed, every FCT
row's slowdown >= 1, one FCT row per flow of the input, and FCT bytes and
counters identical across repetitions and reference runs. The flow count
each point must complete comes from the input (the spec's
workload.num_flows, the trace's rows, or one per host for a permutation),
not from the program. The last
stdout line is one JSON object {correct, attempted, failed, metrics};
attempted counts the input's flows, failed those that did not complete. A
failed check exits 1. See perfbench/README.md for the metrics and
workloads.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import hadoop_trace  # noqa: E402

NPROC = os.cpu_count() or 1
MAX_THREADS = min(4, NPROC)
# The k16 point's budget: the development box reports 4 CPUs but gives 4
# busy processes ~1-3 (usually ~2) cores' worth of throughput; on 4
# threads the window engine's wall swung with the neighbours' load (IQR
# 29% of the median over ten runs, medians 36% apart between two sets).
K16_THREADS = min(2, NPROC)
HADOOP_FLOWS = 50_000
MIN_REPS = 3
# setup_s pools the set-up passes of SETUP_BLOCKS probe processes spread
# over the timed window, so that it samples the box over the same stretch
# as the repetitions do; one 2 s block at the start moved by up to 40%
# (IQR over ten runs) on the 5 ms hadoop set-up.
SETUP_BLOCKS = 4
SETUP_REPS = 2          # set-up passes per probe process, at least ...
SETUP_SECONDS = 0.5     # ... and for at least this long
DEADLINE_S = 170  # every run must end within 180 s

# Per workload: spec, thread budget, the point whose FCTs give sim.*, and
# the extra runs of the traced pass. Each extra run is (name, threads,
# overrides, same_outputs): same_outputs runs must reproduce the untraced
# run's FCT bytes and counters for every point they share. "speedup" and
# "partition" name the (numerator, denominator) runs of
# exec.thread_speedup and exec.partition_overhead; None is the untraced
# run.
WORKLOADS = {
    "websearch_sweep": {
        "spec": "websearch_sweep.exp",
        "threads": min(3, NPROC),
        "sim_label": "FNCC",
        "extra": [
            ("one_thread", 1, [], True),
            ("fncc_auto_domains", 1,
             ["sweep.mode=FNCC", "scenario.exec_domains=auto"], True),
            ("half_input", min(3, NPROC), ["workload.num_flows=500"], False),
        ],
        "speedup": ("one_thread", None),
        "partition": ("fncc_auto_domains", "one_thread"),
    },
    "k16_permutation_pdes": {
        "spec": "k16_permutation_pdes.exp",
        "threads": K16_THREADS,
        "sim_label": "",
        "extra": [
            ("one_thread", 1, [], True),
            ("one_domain_one_thread", 1, ["scenario.exec_domains=1"], True),
            # One flow per host whatever num_flows says: halve the bytes.
            ("half_input", K16_THREADS, ["workload.size_bytes=50000"], False),
        ],
        "speedup": ("one_thread", None),
        "partition": ("one_thread", "one_domain_one_thread"),
    },
    "hadoop_trace_streamed": {
        "spec": "hadoop_trace_streamed.exp",
        "threads": 1,
        "sim_label": "",
        "trace": True,
        "extra": [
            ("eager", 1, ["run.launch_window_us=0", "output.stream_fct=false"],
             True),
            ("max_threads", MAX_THREADS, [], True),
            ("auto_domains", 1, ["scenario.exec_domains=auto"], True),
            ("half_input", 1, ["workload.trace_file=hadoop_trace_half.csv"],
             False),
        ],
        "speedup": (None, "max_threads"),
        "partition": ("auto_domains", None),
    },
}

COUNTERS = ("flows_completed", "flows_total", "pause_frames", "drops",
            "retransmits", "out_of_order", "asymmetric_acks", "lhcs_triggers",
            "events_processed")
MODES = ("DCQCN", "HPCC", "FNCC")


class CheckError(Exception):
    """An output check failed; the run is not correct."""


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory and written
    when the pass ends. Times are CLOCK_MONOTONIC ns, shared with the
    probe's spans."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []

    def open(self, name):
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "start_ns": time.monotonic_ns(), "end_ns": None,
                "parent": self.stack[-1] if self.stack else None}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span):
        span["end_ns"] = time.monotonic_ns()
        self.stack.remove(span["id"])

    def adopt(self, probe_spans, parent):
        """Appends the probe's spans under `parent`."""
        base = len(self.spans)
        for s in probe_spans:
            self.spans.append({
                "id": len(self.spans), "name": s["name"], "run": self.run_id,
                "start_ns": s["start_ns"], "end_ns": s["end_ns"],
                "parent": parent["id"] if s["parent"] < 0
                else base + s["parent"]})

    def write(self, path):
        covered = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0) + (
                    s["end_ns"] - s["start_ns"])
        self_s = {}
        for s in self.spans:
            own = s["end_ns"] - s["start_ns"] - covered.get(s["id"], 0)
            self_s[s["name"]] = self_s.get(s["name"], 0.0) + own * 1e-9
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "self_s": self_s}, f, indent=1)


class Bench:
    def __init__(self, args):
        self.args = args
        self.cfg = WORKLOADS[args.workload]
        self.build_dir = os.path.abspath(
            os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        self.run_id = "%s-seed%d-trace%d-%d" % (
            args.workload, args.seed, args.trace, os.getpid())
        self.out_dir = os.path.join(self.build_dir, "perfbench_runs",
                                    self.run_id)
        self.start = time.monotonic()
        self.tracer = Tracer(self.run_id)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.repetitions = []

    # ------------------------------------------------------------ build
    def build(self):
        for needed in ("src", os.path.join("tools", "fncc_run.cpp"),
                       os.path.join("bench", "bench_micro.cpp")):
            if not os.path.exists(os.path.join(ROOT, needed)):
                sys.exit("perfbench: %s is missing from %s; run from a full "
                         "checkout" % (needed, ROOT))
        os.makedirs(self.build_dir, exist_ok=True)
        log = os.path.join(self.build_dir, "perfbench_build.log")
        steps = [["cmake", "-S", HERE, "-B", self.build_dir],
                 ["cmake", "--build", self.build_dir, "-j", str(MAX_THREADS)]]
        if os.path.exists(os.path.join(self.build_dir, "CMakeCache.txt")):
            steps = steps[1:]
        with open(log, "w") as f:
            for cmd in steps:
                if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    with open(log) as lf:
                        sys.stderr.write(lf.read()[-4000:])
                    sys.exit("perfbench: build failed (%s)" % " ".join(cmd))
        with open(os.path.join(self.build_dir, "provenance.json")) as f:
            self.provenance = json.load(f)
        build_type = self.provenance["build_type"]
        # The same refusal as bench/run_benches.sh: no baseline from -O0/-Og.
        if build_type not in ("Release", "RelWithDebInfo"):
            sys.exit("perfbench: refusing to measure a '%s' build; configure "
                     "%s with -DCMAKE_BUILD_TYPE=Release"
                     % (build_type, self.build_dir))

    def binary(self, name):
        return os.path.join(self.build_dir, name)

    # ------------------------------------------------------- provenance
    def stamp_provenance(self):
        p = self.provenance
        p["nproc"] = NPROC
        p["effective_parallelism"] = effective_parallelism()
        try:
            p["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            p["commit"] = "unknown (not a git checkout)"
        p["threads"] = self.cfg["threads"]
        p["workload"] = self.args.workload
        p["seed"] = self.args.seed

    # ----------------------------------------------------------- inputs
    def prepare_inputs(self):
        """Copies the spec into the run directory and, for the trace
        workload, writes the seeded trace next to it."""
        os.makedirs(self.out_dir, exist_ok=True)
        self.spec = os.path.join(self.out_dir, self.cfg["spec"])
        shutil.copyfile(os.path.join(HERE, "specs", self.cfg["spec"]),
                        self.spec)
        if self.cfg.get("trace"):
            hadoop_trace.write_trace(
                os.path.join(self.out_dir, "hadoop_trace.csv"),
                self.args.seed, HADOOP_FLOWS)
            hadoop_trace.write_trace(
                os.path.join(self.out_dir, "hadoop_trace_half.csv"),
                self.args.seed, HADOOP_FLOWS // 2)

    # -------------------------------------------------------- processes
    def child(self, cmd, log_path):
        """Runs cmd to completion through `perfbench_probe spawn`, whose
        small footprint keeps run.py's own RSS out of the child's peak;
        returns cmd's (rc, wall_s, cpu_s, rss_mib)."""
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise CheckError("time budget exhausted before " + cmd[0])
        usage_path = log_path + ".usage"
        killed = []

        def kill():
            killed.append(True)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [self.binary("perfbench_probe"), "spawn", usage_path] + cmd,
                stdout=log, stderr=subprocess.STDOUT, cwd=self.out_dir,
                start_new_session=True)
            killer = threading.Timer(remaining, kill)
            killer.start()
            proc.wait()
            killer.cancel()
        if killed:
            for _ in range(100):  # until the killed group has ended
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            raise CheckError("%s exceeded the run deadline" % cmd[0])
        with open(usage_path) as f:
            usage = json.load(f)
        return proc.returncode, usage["wall_s"], usage["cpu_s"], \
            usage["rss_mib"]

    def expected(self, overrides=()):
        """(points, flows per point) an invocation with `overrides` must
        produce, read from its input: one point per swept CC mode, and
        workload.num_flows flows each, one per row of the trace, or one per
        host of the fat-tree for a permutation."""
        spec = read_spec(self.spec, overrides)
        if spec.get("workload.kind") == "trace":
            with open(os.path.join(self.out_dir,
                                   spec["workload.trace_file"])) as f:
                flows = sum(1 for line in f if line.strip()) - 1
        elif spec.get("workload.kind") == "permutation":
            if spec.get("topology.kind") != "fat_tree":
                raise CheckError("permutation flow count needs a fat-tree")
            flows = int(spec["topology.k"]) ** 3 // 4
        else:
            flows = int(spec["workload.num_flows"])
        points = len(spec["sweep.mode"].split(",")) if "sweep.mode" in spec \
            else 1
        return points, flows

    def fncc_run(self, name, threads, overrides=()):
        """One checked fncc_run invocation into its own output directory."""
        out = os.path.join(self.out_dir, name)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        cmd = [self.binary("fncc_run"), "--threads", str(threads), self.spec,
               "output.dir=" + out] + list(overrides)
        points, flows = self.expected(overrides)
        span = self.tracer.open("fncc_run." + name)
        try:
            rc, wall, cpu, rss = self.child(cmd, os.path.join(out, "log.txt"))
            if rc != 0:
                raise CheckError("fncc_run %s exited %d (see %s)"
                                 % (name, rc, os.path.join(out, "log.txt")))
        except CheckError:
            # A run that failed or was stopped completed none of its flows.
            self.attempted += points * flows
            self.failed += points * flows
            raise
        finally:
            self.tracer.close(span)
        result = self.check_outputs(out, name, points, flows)
        result.update(wall_s=wall, cpu_s=cpu, rss_mib=rss, threads=threads,
                      overrides=tuple(overrides), flows=flows)
        return result

    # ----------------------------------------------------------- checks
    def check_outputs(self, out, name, num_points, flows):
        """Checks one invocation's manifest against its input (`num_points`
        points of `flows` flows, every flow completed); returns counters,
        per-point digests and the manifest's engine wall time."""
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        self.attempted += num_points * flows
        if len(manifest["points"]) != num_points:
            self.failed += num_points * flows
            raise CheckError("%s: %d points for %d swept modes" % (
                name, len(manifest["points"]), num_points))
        points = {}
        for p in manifest["points"]:
            counters = {k: p[k] for k in COUNTERS}
            self.failed += flows - min(flows, p["flows_completed"])
            if p["flows_total"] != flows or p["flows_completed"] != flows:
                self.errors.append(
                    "%s %s: %d of %d flows launched, %d completed" % (
                        name, p["label"], p["flows_total"], flows,
                        p["flows_completed"]))
            path = p["files"]["fct"]
            with open(path, "rb") as f:
                data = f.read()
            points[p["label"]] = {
                "mode": p["mode"], "counters": counters,
                "digest": hashlib.sha256(data).hexdigest(), "csv": path,
                "csv_bytes": len(data), "wall_s": p["wall_time_seconds"]}
        return {"points": points, "engine_wall_s": manifest["wall_time_seconds"]}

    def check_rows(self, point, label, expected_rows):
        """Full row check of one point's FCT CSV: every slowdown >= 1 and
        one row per flow. Returns the sorted slowdowns."""
        slowdowns = []
        with open(point["csv"]) as f:
            next(f)
            for line in f:
                slowdowns.append(float(line.rsplit(",", 1)[1]))
        bad = sum(1 for s in slowdowns if s < 1.0)
        if bad:
            self.errors.append("%s: %d FCT rows with slowdown < 1" % (label,
                                                                      bad))
        if len(slowdowns) != expected_rows:
            self.errors.append("%s: %d FCT rows for %d flows" % (
                label, len(slowdowns), expected_rows))
        return sorted(slowdowns)

    def check_first(self, run):
        """Row checks on the first invocation, which later invocations must
        then match byte for byte."""
        self.sim = {}
        for label, p in run["points"].items():
            slowdowns = self.check_rows(p, label or "point", run["flows"])
            if label == self.cfg["sim_label"]:
                self.sim = {"p50": nearest_rank(slowdowns, 50),
                            "p99": nearest_rank(slowdowns, 99)}
        self.reference = run

    def check_same(self, run, name):
        """The invocation's FCT bytes and counters equal the first one's
        for every point both produced."""
        for label, p in run["points"].items():
            ref = self.reference["points"].get(label)
            if ref is None:
                ref = next((r for r in self.reference["points"].values()
                            if r["mode"] == p["mode"]), None)
            if ref is None:
                continue
            if p["digest"] != ref["digest"]:
                self.errors.append("%s %s: FCT CSV differs from the "
                                   "reference run" % (name, label))
            if p["counters"] != ref["counters"]:
                self.errors.append("%s %s: counters differ from the reference "
                                   "run: %s vs %s" % (name, label,
                                                      p["counters"],
                                                      ref["counters"]))

    # ------------------------------------------------------------ setup
    def measure_setup(self, overrides=(), min_reps=SETUP_REPS,
                      min_seconds=SETUP_SECONDS):
        """Parse + fabric build + routes + domain sealing + flow generation,
        repeated in one perfbench_probe process; returns every pass's total,
        their median, and each point's median, lane count and generated
        flows. The eager flow count must match the input."""
        log = os.path.join(self.out_dir, "setup.json")
        rc, _, _, _ = self.child(
            [self.binary("perfbench_probe"), "setup", "--min-reps",
             str(min_reps), "--min-seconds", str(min_seconds), self.spec] +
            list(overrides), log)
        if rc != 0:
            raise CheckError("perfbench_probe setup exited %d (see %s)"
                             % (rc, log))
        with open(log) as f:
            setup = json.loads(f.read().strip().splitlines()[-1])
        spec = read_spec(self.spec, overrides)
        _, flows = self.expected(overrides)
        if float(spec.get("run.launch_window_us", 0)) == 0:
            for p in setup["points"]:
                if p["flows"] != flows:
                    self.errors.append("set-up %s: %d flows generated for %d"
                                       % (p["label"], p["flows"], flows))
        return setup

    # ------------------------------------------------------ end to end
    def end_to_end(self):
        setup_totals = []
        reps = []
        t0 = time.monotonic()
        next_setup = 0.0
        while len(reps) < MIN_REPS or time.monotonic() - t0 < self.args.seconds:
            if time.monotonic() - t0 >= next_setup:
                setup_totals += self.measure_setup()["totals"]
                next_setup += self.args.seconds / SETUP_BLOCKS
            run = self.fncc_run("rep", self.cfg["threads"])
            if not reps:
                self.check_first(run)
            else:
                self.check_same(run, "rep %d" % len(reps))
            reps.append({k: run[k] for k in ("wall_s", "cpu_s", "rss_mib")})
            reps[-1]["events"] = sum(p["counters"]["events_processed"]
                                     for p in run["points"].values())
            reps[-1]["flows"] = sum(p["counters"]["flows_completed"]
                                    for p in run["points"].values())
        med = lambda key: statistics.median(r[key] for r in reps)  # noqa
        print("repetitions: %d, set-up passes: %d" % (len(reps),
                                                      len(setup_totals)))
        self.repetitions = reps
        return {
            "wall_s": (med("wall_s"), "s"),
            "cpu_s": (med("cpu_s"), "s"),
            "events_per_s": (statistics.median(
                r["events"] / r["wall_s"] for r in reps), "1/s"),
            "flows_per_s": (statistics.median(
                r["flows"] / r["wall_s"] for r in reps), "1/s"),
            "peak_rss_mib": (med("rss_mib"), "MiB"),
            "setup_s": (statistics.median(setup_totals), "s"),
            "sim.slowdown_p50": (self.sim["p50"], "x"),
            "sim.slowdown_p99": (self.sim["p99"], "x"),
        }

    # ------------------------------------------------------------ traced
    def traced(self):
        cfg = self.cfg
        root = self.tracer.open("trace_pass")
        untraced = self.fncc_run("untraced", cfg["threads"])
        self.check_first(untraced)

        probe_dir = os.path.join(self.out_dir, "traced")
        shutil.rmtree(probe_dir, ignore_errors=True)
        os.makedirs(probe_dir)
        span = self.tracer.open("probe")
        log = os.path.join(probe_dir, "probe.log")
        rc, probe_wall, _, _ = self.child(
            [self.binary("perfbench_probe"), "trace", "--threads",
             str(cfg["threads"]), "--run-id", self.run_id, self.spec,
             "output.dir=" + probe_dir, "output.pdes_stats=true"], log)
        self.tracer.close(span)
        if rc != 0:
            raise CheckError("perfbench_probe trace exited %d (see %s)"
                             % (rc, log))
        with open(log) as f:
            probe = json.loads(f.read().strip().splitlines()[-1])
        self.tracer.adopt(probe["spans"], span)
        self.check_same(self.check_outputs(probe_dir, "traced",
                                           *self.expected()), "traced")
        for p in probe["points"]:
            # The set-up replica must build what the runner built.
            if (p["replica_lanes"], p["replica_flows"]) != (p["lanes"],
                                                             p["flows_total"]):
                self.errors.append(
                    "set-up replica %s: %d lanes, %d flows; runner: %d, %d"
                    % (p["label"], p["replica_lanes"], p["replica_flows"],
                       p["lanes"], p["flows_total"]))

        runs = {None: untraced}
        for name, threads, overrides, same in cfg["extra"]:
            runs[name] = self.fncc_run(name, threads, overrides)
            if same:
                self.check_same(runs[name], name)
            else:
                for label, p in runs[name]["points"].items():
                    self.check_rows(p, "%s %s" % (name, label),
                                    runs[name]["flows"])

        # Per-point set-up of every configuration the exec ratios compare,
        # to take it out of their walls.
        setups = {}
        for run in runs.values():
            if run["overrides"] not in setups:
                span = self.tracer.open("setup")
                setups[run["overrides"]] = {
                    p["label"]: p["setup_s"] for p in
                    self.measure_setup(run["overrides"], 3, 0.5)["points"]}
                self.tracer.close(span)
        engine = lambda name: self.engine_s(runs[name],  # noqa: E731
                                            setups[runs[name]["overrides"]])
        micro = self.microbenches()
        self.tracer.close(root)

        pts = probe["points"]
        total = lambda key: sum(p[key] for p in pts)  # noqa: E731
        events = total("events")
        lanes = max(p["lanes"] for p in pts)
        windows = total("windows")
        num, den = cfg["speedup"]
        pnum, pden = cfg["partition"]
        m = {
            "harness.parse_s": (probe["parse_s"], "s"),
            "harness.write_outputs_s": (probe["write_outputs_s"], "s"),
            "net.build_s": (probe["build_s"], "s"),
            "net.routes_s": (probe["routes_s"], "s"),
            "net.seal_s": (probe["seal_s"], "s"),
            "net.drops": (total("drops"), "count"),
            "net.pause_frames": (total("pause_frames"), "count"),
            "net.pool_packets_created": (total("pool_packets_created"),
                                         "count"),
            "net.pool_reuse": (1 - total("pool_packets_created") /
                               max(1, total("pool_packets_acquired")),
                               "ratio"),
            "net.switch_forward_ns": (micro["BM_SwitchForward"], "ns"),
            "sim.events": (events, "count"),
            "sim.ns_per_event": (sum(p["wall_s"] - p["setup_s"] for p in pts)
                                 * 1e9 / max(1, events), "ns"),
            "sim.schedule_run_ns": (micro["BM_EventQueueScheduleRun/16384"],
                                    "ns"),
            "transport.host_ack_ns": (micro["BM_HostAckPath/65536"], "ns"),
            "transport.retransmits": (total("retransmits"), "count"),
            "transport.out_of_order": (total("out_of_order"), "count"),
            "cc.ack_ns.FNCC": (micro["BM_FnccAckProcessing"], "ns"),
            "cc.ack_ns.HPCC": (micro["BM_HpccAckProcessing"], "ns"),
            "cc.lhcs_triggers": (total("lhcs_triggers"), "count"),
            "cc.asymmetric_acks": (total("asymmetric_acks"), "count"),
            "workload.generate_s": (probe["generate_s"], "s"),
            "workload.trace_read_s": (probe["trace_read_s"], "s"),
            "workload.flows": (total("flows_total"), "count"),
            "stats.sink_append_ns": (probe["sink_replay_s"] * 1e9 /
                                     max(1, probe["sink_replay_rows"]), "ns"),
            "stats.csv_bytes": (sum(p["csv_bytes"] for p in
                                    untraced["points"].values()), "bytes"),
            "stats.rss_growth_mib": (untraced["rss_mib"] -
                                     runs["half_input"]["rss_mib"], "MiB"),
            "exec.windows": (windows, "count"),
            "exec.events_per_window": (total("window_events") /
                                       windows if windows else 0, "count"),
            "exec.stolen_lane_windows": (total("stolen_lane_windows"),
                                         "count"),
            "exec.barrier_sleeps": (total("barrier_sleeps"), "count"),
            "exec.critical_lane_share": (
                max(p["max_lane_events"] / p["events"] for p in pts)
                if lanes > 1 else 1.0, "ratio"),
            "exec.partition_overhead": (
                self.point_engine_s(runs[pnum], setups) /
                self.point_engine_s(runs[pden], setups), "ratio"),
            "exec.thread_speedup": (engine(num) / engine(den), "ratio"),
            "exec.window_barrier_ns": (micro["BM_WindowBarrier"], "ns"),
            # The probe's own extra work (set-up replicas, source pulls,
            # sink replay) is not part of the traced fncc_run pipeline.
            "trace.overhead_s": (probe_wall - probe["probe_only_s"] -
                                 untraced["wall_s"], "s"),
        }
        for mode in MODES:
            m["harness.point_wall_s." + mode] = (
                sum(p["wall_s"] for p in pts if p["mode"] == mode), "s")
        print("untraced wall %.3f s, traced wall %.3f s, setup %.3f s"
              % (untraced["wall_s"], probe_wall, probe["setup_s"]))
        self.tracer.write(os.path.join(self.out_dir, "spans.json"))
        return m

    @staticmethod
    def engine_s(run, setup):
        """The invocation's wall without set-up: the manifest's wall minus
        the set-up on its critical path (every point's on one thread, the
        slowest point's when the points fan out)."""
        per_point = [setup[label] for label in run["points"]]
        critical = sum(per_point) if run["threads"] == 1 else max(per_point)
        return run["engine_wall_s"] - critical

    @staticmethod
    def point_engine_s(run, setups):
        """Engine wall, set-up excluded, of the partition-overhead point:
        the FNCC point on the sweep, the only point elsewhere."""
        for label, p in run["points"].items():
            if len(run["points"]) == 1 or p["mode"] == "FNCC":
                return p["wall_s"] - setups[run["overrides"]][label]
        raise CheckError("no FNCC point in the partition-overhead run")

    def microbenches(self):
        """The layer micro-benchmarks, by filter, from the unmodified
        bench binaries; ns per item (event, packet, ACK, barrier cycle)."""
        barrier = "BM_WindowBarrier/%d/real_time" % (4 if NPROC >= 4 else 2)
        families = [
            ("bench_micro", "^(BM_EventQueueScheduleRun/16384|BM_SwitchForward"
             "|BM_HostAckPath/65536|BM_FnccAckProcessing"
             "|BM_HpccAckProcessing)$"),
            ("bench_fatree_pdes", "^%s$" % barrier),
        ]
        ns = {}
        for binary, pattern in families:
            log = os.path.join(self.out_dir, binary + ".json")
            span = self.tracer.open("microbench." + binary)
            rc, _, _, _ = self.child(
                [self.binary(binary), "--benchmark_filter=" + pattern,
                 "--benchmark_min_time=0.2", "--benchmark_out=" + log,
                 "--benchmark_out_format=json"], log + ".log")
            self.tracer.close(span)
            if rc != 0:
                raise CheckError("%s exited %d" % (binary, rc))
            with open(log) as f:
                data = json.load(f)
            self.provenance["bench_library_build_type"] = data["context"].get(
                "library_build_type", "unknown")
            for b in data["benchmarks"]:
                ns[b["name"].replace("/real_time", "")] = (
                    1e9 / b["items_per_second"])
        ns["BM_WindowBarrier"] = ns.pop(barrier.replace("/real_time", ""))
        return ns


def read_spec(path, overrides=()):
    """The spec's settings as {"section.key": value}, `overrides`
    ("section.key=value") applied."""
    values, section = {}, ""
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line.strip("[]").strip()
            elif "=" in line:
                key, value = line.split("=", 1)
                values[section + "." + key.strip()] = value.strip()
    for override in overrides:
        key, value = override.split("=", 1)
        values[key] = value
    return values


def nearest_rank(sorted_values, pct):
    if not sorted_values:
        return 0.0
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


def effective_parallelism():
    """Cores' worth of throughput NPROC busy processes get: the summed
    loop rate of NPROC concurrent processes over the rate of one alone
    (the faster of one run before and one after)."""
    code = ("import time\nt=time.perf_counter()\nn=0\n"
            "while time.perf_counter()-t<0.5: n+=1\n"
            "print(n/(time.perf_counter()-t))")

    def rates(n):
        procs = [subprocess.Popen([sys.executable, "-c", code],
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(n)]
        return [float(p.communicate()[0]) for p in procs]

    before = rates(1)[0]
    loaded = sum(rates(NPROC))
    return round(loaded / max(before, rates(1)[0]), 2)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = Bench(args)
    bench.build()
    bench.stamp_provenance()
    metrics = {}
    try:
        bench.prepare_inputs()
        metrics = bench.traced() if args.trace else bench.end_to_end()
    except (CheckError, OSError, ValueError, KeyError) as e:
        bench.errors.append("%s: %s" % (type(e).__name__, e))
    correct = not bench.errors
    print("provenance: " + json.dumps(bench.provenance, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print("%-32s %16.6g %s" % (name, value, unit))
    for err in bench.errors:
        print("CHECK FAILED: " + err)
    with open(os.path.join(bench.out_dir, "results.json"), "w") as f:
        json.dump({"provenance": bench.provenance, "errors": bench.errors,
                   "metrics": metrics, "repetitions": bench.repetitions},
                  f, indent=1, sort_keys=True)
    for name in os.listdir(bench.out_dir):
        path = os.path.join(bench.out_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        elif name.endswith(".csv"):
            os.remove(path)
    print(json.dumps({
        "correct": correct, "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
