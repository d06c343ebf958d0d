"""Statistics of the benchmark: percentiles, spreads, open-loop accounting,
span self time, determinism checks and the Chrome trace writer.

Pure functions over the raw measurements the driver prints; test_stats.py
covers them.
"""

import json
import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def percentile(values, q):
    """Nearest-rank q-th percentile: the smallest sample with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_percentile(n):
    """Highest whole percentile that leaves at least TAIL_SAMPLES of n
    samples beyond it, or None when n is too small for any."""
    if n <= TAIL_SAMPLES:
        return None
    q = math.floor(100.0 * (n - TAIL_SAMPLES) / n)
    # Nearest rank of q must leave TAIL_SAMPLES samples above it.
    while q > 0 and n - math.ceil(q / 100.0 * n) < TAIL_SAMPLES:
        q -= 1
    return q if q > 0 else None


def quartiles(values):
    """(first quartile, median, third quartile), as
    statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def open_loop(due, sent, visible):
    """Per-batch accounting of an open-loop run.

    Each batch is timed from when it was *due*, not from when the generator
    got round to sending it, so a stall charges every batch it delayed.
    Returns (latency, lateness, missing): latency is visible - due, with
    math.inf for a batch never seen visible (it misses every latency limit);
    lateness is how far behind its schedule the generator sent each batch;
    missing counts the never-visible batches.
    """
    latency, lateness, missing = [], [], 0
    for d, s, v in zip(due, sent, visible):
        lateness.append(max(0.0, s - d))
        if v is None or v < 0:
            latency.append(math.inf)
            missing += 1
        else:
            latency.append(v - d)
    return latency, lateness, missing


def service_times(session, sent, visible):
    """Per batch of an open-loop run, the time the server spent on it.

    A session applies its batches in order, so a batch's service starts
    when it was sent or when its session's previous batch became visible,
    whichever is later, and ends when it becomes visible.  A batch never
    seen visible gets math.inf.
    """
    out, last = [], {}
    for s, t, v in zip(session, sent, visible):
        if v is None or v < 0:
            out.append(math.inf)
            continue
        out.append(v - max(t, last.get(s, t)))
        last[s] = v
    return out


def self_times(spans):
    """Self time per layer: each span's duration minus the part of it its
    child spans cover.

    spans: (name, layer, start, end, parent, unit, tid) rows, parent being
    an index into spans or -1; unfinished spans (end < 0) are ignored.
    """
    children = {}
    for s in spans:
        if s[3] >= 0 and s[4] >= 0:
            children.setdefault(s[4], []).append(s)
    out = {}
    for i, s in enumerate(spans):
        start, end = s[2], s[3]
        if end < 0:
            continue
        covered, reach = 0.0, start
        for c in sorted(children.get(i, []), key=lambda c: c[2]):
            lo, hi = max(c[2], reach), min(c[3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[1]] = out.get(s[1], 0.0) + (end - start) - covered
    return out


def drift(groups, ignore=("host_s",)):
    """Determinism check over repeats of a pure function of graph, config
    and seed: returns (comparisons, failures), failures naming each field
    that differs from the first repeat."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in ignore}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    def fields(value, path=""):
        if isinstance(value, dict):
            for k, v in value.items():
                yield from fields(v, path + "." + k if path else k)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                yield from fields(v, "%s[%d]" % (path, i))
        else:
            yield path, value

    comparisons, failures = 0, []
    for group, repeats in sorted(groups.items()):
        first = dict(fields(strip(repeats[0])))
        for r, rep in enumerate(repeats[1:], start=1):
            comparisons += 1
            other = dict(fields(strip(rep)))
            for key in sorted(set(first) | set(other)):
                if first.get(key) != other.get(key):
                    failures.append("determinism: %s repeat %d: %s %r != %r"
                                    % (group, r, key, other.get(key),
                                       first.get(key)))
    return comparisons, failures


def chrome_trace(spans, path):
    """Writes the spans as Chrome trace-event JSON, which Perfetto and
    chrome://tracing open."""
    events = []
    for i, (name, layer, start, end, parent, unit, tid) in enumerate(spans):
        if end < 0:
            continue
        events.append({"name": name, "cat": layer, "ph": "X", "pid": 1,
                       "tid": tid, "ts": start * 1e6,
                       "dur": (end - start) * 1e6,
                       "args": {"span": i, "parent": parent, "unit": unit}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
