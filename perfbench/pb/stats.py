"""The benchmark's own arithmetic: quantiles, span self time, open-loop
latency and lateness, and the rate ladder's stop rule. Unit-tested in
perfbench/test_stats.py."""

import math

# A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def quantile(samples, q):
    """Nearest-rank q-quantile of raw samples.

    Returns (value, None), or (None, reason) when fewer than MIN_BEYOND
    samples lie beyond the rank, so a tail is never read off a handful of
    points."""
    n = len(samples)
    if n == 0:
        return None, "no samples"
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None, "%d samples leave %d beyond p%g; %d needed" % (n, beyond, q * 100, MIN_BEYOND)
    return sorted(samples)[rank - 1], None


def median(values):
    """Plain median (mean of the middle pair for even counts)."""
    v = sorted(values)
    if not v:
        raise ValueError("median of no values")
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover. Children may overlap each other (parallel
    work); overlapping stretches count once.

    `spans` is a list of dicts with id, start, end and parent."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def self_time_by_name(spans):
    """Self times summed per span name."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0) + own[s["id"]]
    return out


def due_latency(due, sent, done):
    """(latency, lateness) of one open-loop request: latency runs from the
    time the request was due, so a stall also charges the requests queued
    behind it; lateness is how late the generator sent it."""
    return done - due, max(0.0, sent - due)


def backlog_grows(lateness, slack):
    """True when the generator fell further behind during a ladder step:
    the median lateness of the last quarter of the step's requests exceeds
    that of the first quarter by more than `slack` seconds."""
    n = len(lateness)
    if n < 8:
        return False
    k = n // 4
    return median(lateness[-k:]) - median(lateness[:k]) > slack


def ladder_max_rate(steps, limit, slack):
    """Highest rate of a fixed ladder that meets the latency limit.

    `steps` are (rate, latencies, lateness) in ascending rate order. A step
    passes when its p99 is reportable, at most `limit`, and its backlog
    does not grow. The ladder stops at the first step that fails; returns
    (max passing rate or None, index of the failing step or None)."""
    best = None
    for i, (rate, latencies, lateness) in enumerate(steps):
        p99, _why = quantile(latencies, 0.99)
        if p99 is None or p99 > limit or backlog_grows(lateness, slack):
            return best, i
        best = rate
    return best, None
