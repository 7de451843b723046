#!/usr/bin/env python3
"""Seeded flow trace for the hadoop_trace_streamed workload.

Writes a `start_us,src,dst,bytes` CSV (the format of the simulator's
`trace` workload): flow sizes from the Facebook Hadoop size distribution
(Roy et al.), interpolated linearly between CDF points the way the
simulator's `fb_hadoop` CDF is, exponential inter-arrival gaps, and host
pairs with distinct endpoints. The same seed gives the same bytes.

The sampling is stratified: sizes are the distribution's N quantiles and
gaps the exponential's N quantiles, every host sources and sinks N/128
flows, and the seed shuffles each list. So every seed offers the same
bytes at the same mean rate through the same per-host load; only which
flow goes where and when changes. With independent draws (at 30% load)
the replay's wall time and slowdown quantiles moved by 7-14% from seed to
seed.

Load is 15% of every host's 100 Gb/s access link, the highest level tried
at which the k=8 fat-tree keeps up: the live-flow count, and with it the
replay's peak RSS, stays flat as the trace grows (25k -> 100k flows: peak
RSS 18.2 -> 19.4 MiB, mean slowdown 1.57 -> 1.60). At 20% the backlog
starts to build (24.1 -> 27.5 MiB, 2.14 -> 2.33), at 30% clearly
(37.6 -> 51.5 MiB, 4.24 -> 7.12) and at 50% the backlog, not the pipeline,
sets peak RSS (89.8 -> 290.7 MiB, 12.8 -> 47.4).
"""
import bisect
import math
import random

# (size_bytes, cumulative probability)
FB_HADOOP_CDF = [
    (1, 0.0), (75, 0.08), (250, 0.25), (350, 0.36), (1_000, 0.52),
    (2_000, 0.63), (6_000, 0.77), (10_000, 0.82), (15_000, 0.86),
    (23_000, 0.90), (24_000, 0.905), (25_000, 0.91), (100_000, 0.97),
    (1_000_000, 1.00),
]
HOSTS = 128  # k=8 fat-tree: k^3/4
LINK_GBPS = 100.0
LOAD = 0.15


def mean_bytes(cdf):
    return sum((p1 - p0) * 0.5 * (s0 + s1)
               for (s0, p0), (s1, p1) in zip(cdf, cdf[1:]))


def size_quantile(cdf, probs, u):
    i = bisect.bisect_left(probs, u)
    if i == 0:
        return max(1, int(cdf[0][0]))
    (s0, p0), (s1, p1) = cdf[i - 1], cdf[i]
    return max(1, int(s0 + (u - p0) / (p1 - p0) * (s1 - s0)))


def write_trace(path, seed, flows):
    """Writes `flows` rows to `path`."""
    rng = random.Random(seed)
    rate = LOAD * LINK_GBPS * 1e9 * HOSTS / (mean_bytes(FB_HADOOP_CDF) * 8)
    probs = [p for _, p in FB_HADOOP_CDF]
    strata = [(i + 0.5) / flows for i in range(flows)]
    sizes = [size_quantile(FB_HADOOP_CDF, probs, u) for u in strata]
    gaps_us = [-math.log(1 - u) / rate * 1e6 for u in strata]
    srcs = [i % HOSTS for i in range(flows)]
    dsts = list(srcs)
    for values in (sizes, gaps_us, srcs, dsts):
        rng.shuffle(values)
    # Pair off self-flows by swapping destinations with a later flow.
    for i in range(flows):
        j = i + 1
        while srcs[i] == dsts[i]:
            j %= flows
            if dsts[j] != srcs[i] and dsts[i] != srcs[j]:
                dsts[i], dsts[j] = dsts[j], dsts[i]
            j += 1
    t_us = 0.0
    rows = ["start_us,src,dst,bytes"]
    for gap, src, dst, size in zip(gaps_us, srcs, dsts, sizes):
        t_us += gap
        rows.append(f"{t_us:.3f},{src},{dst},{size}")
    with open(path, "w") as f:
        f.write("\n".join(rows) + "\n")
