#!/usr/bin/env sh
# Runs bench_micro and writes BENCH_micro.json so successive PRs can track
# the hot-path trajectory (events/sec, packets/sec, steady-state allocation
# counters). Usage:
#   bench/run_benches.sh [build-dir] [output-json]
# Defaults: build-dir = ./build, output = ./BENCH_micro.json
#
# FNCC_THREADS (default 1) is exported to the benchmark process and stamped
# into the JSON as the `fncc_threads` context entry. Baselines are recorded
# single-threaded; scripts/check_bench_regression.py ignores wall-time
# fields whenever the two runs' fncc_threads differ, so a parallel smoke
# run can still be compared on the machine-independent ratios.
#
# Refuses to emit JSON from a non-Release build: -O0/-Og numbers are not a
# valid baseline, and the committed BENCH_micro.json is what the CI
# regression gate compares against. (The `library_build_type` field inside
# the JSON describes the system google-benchmark library, not this project;
# the authoritative field is the `fncc_build_type` context entry added
# here.)
#
# It also asserts on that `library_build_type`: distro libbenchmark-dev
# packages are frequently built without NDEBUG and stamp "debug", which is
# easy to misread as "fncc was benched at -O0". A debug benchmark LIBRARY
# barely affects measurements (the timing loop is header code compiled into
# our Release binary; the .so only does setup/reporting) and the gate's
# new-vs-legacy ratios are within-binary and unaffected — but absolute
# numbers from such a run must be labelled, not silent. Set
# FNCC_ALLOW_DEBUG_BENCH_LIB=1 to acknowledge and proceed on machines where
# only a debug-built library exists; the JSON keeps `library_build_type`
# so the run stays self-documenting.
set -eu

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_micro.json}"
BENCH="$BUILD_DIR/bench_micro"
FNCC_THREADS="${FNCC_THREADS:-1}"
export FNCC_THREADS

if [ ! -x "$BENCH" ]; then
  echo "error: $BENCH not found - build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
case "$BUILD_TYPE" in
  Release|RelWithDebInfo) ;;
  *)
    echo "error: refusing to emit $OUT from a '$BUILD_TYPE' build" >&2
    echo "  benchmark baselines must come from Release:" >&2
    echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release" >&2
    exit 1
    ;;
esac

# Debug-benchmark-library assertion (see header comment). A cheap probe
# run (empty filter) reveals the library's build type BEFORE the real
# bench, so a refused run costs nothing and an acknowledged one can stamp
# the acknowledgement into the JSON context — check_bench_regression.py
# refuses debug-library files that lack this stamp, baselines included.
PROBE="$BUILD_DIR/.bench_probe.json"
"$BENCH" --benchmark_filter='^$' --benchmark_out="$PROBE" \
  --benchmark_out_format=json >/dev/null 2>&1 || true
LIB_TYPE="$(sed -n 's/.*"library_build_type": *"\([^"]*\)".*/\1/p' "$PROBE" \
  | head -1)"
rm -f "$PROBE"
LIB_ACK=0
if [ "$LIB_TYPE" != "release" ]; then
  if [ "${FNCC_ALLOW_DEBUG_BENCH_LIB:-0}" = "1" ]; then
    LIB_ACK=1
    echo "warning: google-benchmark library_build_type='$LIB_TYPE' (not" >&2
    echo "  release); proceeding because FNCC_ALLOW_DEBUG_BENCH_LIB=1 and" >&2
    echo "  stamping fncc_debug_bench_lib_ack into the JSON." >&2
    echo "  fncc itself is $BUILD_TYPE; ratios are unaffected, but treat" >&2
    echo "  absolute numbers with care." >&2
  else
    echo "error: the google-benchmark library reports" >&2
    echo "  library_build_type='$LIB_TYPE' (built without NDEBUG)." >&2
    echo "  Refusing to emit $OUT: a debug-stamped JSON reads as if fncc" >&2
    echo "  was benched unoptimized. Install/build a Release" >&2
    echo "  google-benchmark, or acknowledge with" >&2
    echo "  FNCC_ALLOW_DEBUG_BENCH_LIB=1 (library overhead is outside the" >&2
    echo "  measured loop; within-binary speedup ratios stay valid)." >&2
    exit 1
  fi
fi

# fncc_hw_threads: hardware context for the wall-time entries (e.g. the
# end-to-end BM_StreamingLaunch / BM_Dumbbell* numbers) — same stamp the
# PDES section below records, so every emitted JSON is self-describing
# about the machine it ran on.
HW_THREADS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)"

"$BENCH" \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  --benchmark_context=fncc_build_type="$BUILD_TYPE" \
  --benchmark_context=fncc_threads="$FNCC_THREADS" \
  --benchmark_context=fncc_hw_threads="$HW_THREADS" \
  --benchmark_context=fncc_debug_bench_lib_ack="$LIB_ACK" \
  --benchmark_min_time=0.2

echo ""
echo "wrote $OUT (fncc_build_type=$BUILD_TYPE, fncc_threads=$FNCC_THREADS)"

# Headline numbers: new-vs-legacy event-queue speedup and the steady-state
# packet allocation counter (must be 0). Python is optional sugar; the JSON
# is the artifact.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
by_name = {b["name"]: b for b in data["benchmarks"]}

def ips(name):
    b = by_name.get(name)
    return b["items_per_second"] if b else None

print("== event queue: new (wheel+heap hybrid) vs legacy (events/sec) ==")
for arg in (64, 1024, 16384):
    new = ips(f"BM_EventQueueScheduleRun/{arg}")
    old = ips(f"BM_LegacyEventQueueScheduleRun/{arg}")
    if new and old:
        print(f"  schedule+run batch={arg:<6} {new/1e6:8.1f}M vs "
              f"{old/1e6:8.1f}M  -> {new/old:.2f}x")
for arg in (64, 1024):
    new = ips(f"BM_EventQueueCancelReschedule/{arg}")
    old = ips(f"BM_LegacyEventQueueCancelReschedule/{arg}")
    fused = ips(f"BM_EventQueueRescheduleFused/{arg}")
    if new and old:
        line = (f"  cancel+rearm timers={arg:<5} {new/1e6:8.1f}M vs "
                f"{old/1e6:8.1f}M  -> {new/old:.2f}x")
        if fused:
            line += f"  (fused Reschedule: {fused/1e6:.1f}M)"
        print(line)

print("== packet pool ==")
pool = by_name.get("BM_PacketPoolAcquireRelease")
heap = ips("BM_MakeUniquePacket")
if pool:
    print(f"  pool acquire+release   {pool['items_per_second']/1e6:8.1f}M pkts/s"
          f"  steady_heap_allocs={pool.get('steady_heap_allocs', '?')}")
int_ack = by_name.get("BM_PacketPoolIntAck")
if int_ack:
    print(f"  INT ACK (5 hops)       {int_ack['items_per_second']/1e6:8.1f}M acks/s"
          f"  steady_heap_allocs={int_ack.get('steady_heap_allocs', '?')}")
if heap:
    print(f"  make_unique baseline   {heap/1e6:8.1f}M pkts/s")

print("== receive path: flow table + devirtualized dispatch vs map+virtual ==")
for arg in (64, 1024, 8192, 65536):
    new = ips(f"BM_HostAckPath/{arg}")
    old = ips(f"BM_LegacyHostAckPath/{arg}")
    if new and old:
        print(f"  ACK path flows={arg:<6} {new/1e6:8.1f}M vs "
              f"{old/1e6:8.1f}M acks/s  -> {new/old:.2f}x")
fwd = ips("BM_SwitchForward")
if fwd:
    print(f"  switch forward         {fwd/1e6:8.1f}M pkts/s (full pipeline)")

print("== net: routing set-up (Network::ComputeRoutes) ==")
for k in (8, 16):
    b = by_name.get(f"BM_ComputeRoutes/{k}")
    if b:
        print(f"  fat-tree k={k:<2}          {b['real_time']:8.2f} "
              f"{b['time_unit']} per routing pass")

print("== streaming FCT pipeline ==")
sink = by_name.get("BM_FctSink")
if sink:
    print(f"  fct sink append        {sink['items_per_second']/1e6:8.1f}M flows/s"
          f"  sketch_buckets={sink.get('sketch_buckets', '?')}")
stream = ips("BM_StreamingLaunch/4096")
if stream:
    print(f"  streaming launch       {stream/1e3:8.1f}k flows/s "
          f"(register+launch+drain+release, end to end)")
for d in (1, 2, 8):
    sd = ips(f"BM_StreamingLaunchDomains/{d}")
    if sd:
        print(f"  streaming domains={d}    {sd/1e3:8.1f}k flows/s "
              f"(fat-tree point, exec_domains={d})")
EOF
fi

# --- PDES domain partition: the k=16 fat-tree point at 1/2/4/8 domains ---
# Same provenance stamps as BENCH_micro.json, plus fncc_hw_threads: the
# domain speedup entries are wall-time measurements, meaningful only
# relative to the worker threads the recording machine actually had.
# scripts/check_bench_regression.py gates only the machine-independent
# /1 ratios (BM_FatTreePoint=BM_FatTreePointSerial and the streamed
# composition BM_FatTreePointStreamed=BM_FatTreePoint).
PDES_BENCH="$BUILD_DIR/bench_fatree_pdes"
PDES_OUT="${3:-BENCH_fatree_pdes.json}"
if [ -x "$PDES_BENCH" ]; then
  # min_warmup_time: the fat-tree entries take ~1s per iteration, so
  # min_time is satisfied by the FIRST iteration -- without a warm-up the
  # first benchmark in the binary records cold (page faults, allocator
  # growth) while the serial reference at the end runs warm, skewing the
  # gated /1 ratio by >15%. The flag keeps benchmark names stable, unlike
  # the ->MinWarmUpTime() builder which renames entries.
  "$PDES_BENCH" \
    --benchmark_out="$PDES_OUT" \
    --benchmark_out_format=json \
    --benchmark_context=fncc_build_type="$BUILD_TYPE" \
    --benchmark_context=fncc_threads="$FNCC_THREADS" \
    --benchmark_context=fncc_hw_threads="$HW_THREADS" \
    --benchmark_context=fncc_debug_bench_lib_ack="$LIB_ACK" \
    --benchmark_min_time=0.2 \
    --benchmark_min_warmup_time=0.5

  echo ""
  echo "wrote $PDES_OUT (fncc_threads=$FNCC_THREADS, hw_threads=$HW_THREADS)"

  if command -v python3 >/dev/null 2>&1; then
    python3 - "$PDES_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
by_name = {b["name"]: b for b in data["benchmarks"]}

def wall(name):
    b = by_name.get(name)
    return b["real_time"] if b else None

print("== fat-tree k=16 point: event-domain scaling (wall ms) ==")
serial = wall("BM_FatTreePointSerial/1")
d1 = wall("BM_FatTreePoint/1")
if serial and d1:
    print(f"  serial reference      {serial:8.1f} ms")
    print(f"  domains=1             {d1:8.1f} ms  "
          f"(partition overhead {d1/serial:.2f}x, gated)")
for d in (2, 4, 8):
    t = wall(f"BM_FatTreePoint/{d}")
    if t and d1:
        print(f"  domains={d}             {t:8.1f} ms  -> {d1/t:.2f}x vs 1")
hw = data.get("context", {}).get("fncc_hw_threads", "?")
print(f"  (recorded with fncc_hw_threads={hw}; speedup needs >= domains "
      f"hardware threads)")

print("== streamed point: launch-window injection over the partition ==")
s1 = wall("BM_FatTreePointStreamed/1")
if s1 and d1:
    print(f"  streamed domains=1    {s1:8.1f} ms  "
          f"(vs eager {s1/d1:.2f}x, gated)")
for d in (2, 8):
    s = wall(f"BM_FatTreePointStreamed/{d}")
    e = wall(f"BM_FatTreePoint/{d}")
    if s and s1:
        line = f"  streamed domains={d}    {s:8.1f} ms  -> {s1/s:.2f}x vs 1"
        if e:
            line += f"  (eager: {e:.1f} ms)"
        print(line)

print("== window coordination: barrier cycle vs legacy Submit+Wait pair ==")
for n in (2, 4):
    new = by_name.get(f"BM_WindowBarrier/{n}/real_time")
    old = by_name.get(f"BM_LegacyWindowPair/{n}/real_time")
    if new and old:
        print(f"  participants={n}        barrier {new['real_time']:8.0f} ns"
              f"  vs pool pair {old['real_time']:8.0f} ns  "
              f"-> {old['real_time']/new['real_time']:.2f}x (gated)")
EOF
  fi
else
  echo "note: $PDES_BENCH not built - skipping $PDES_OUT" >&2
fi
