"""Statistics helpers of the performance ledger: medians, tail
percentiles with a minimum tail sample, and span self time."""

import math
import statistics
from collections import defaultdict

# A tail percentile is reported only where at least this many samples lie
# beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def faster_half(items, rate):
    """The faster half (rounded up) of `items`, ranked by `rate(item)`,
    highest first. On a shared machine a trial slowed by other tenants
    says little about the program: the faster half of many trials moves
    far less between runs than all of them, while a slower program
    still slows every trial."""
    ranked = sorted(items, key=rate, reverse=True)
    return ranked[:(len(ranked) + 1) // 2]


def tail_percentile(samples, want=99.0, min_beyond=MIN_BEYOND):
    """The highest nearest-rank percentile, at most `want`, that leaves at
    least `min_beyond` samples above it.

    Returns (percentile, value, beyond), or None when there are not more
    than `min_beyond` samples.
    """
    n = len(samples)
    if n <= min_beyond:
        return None
    ordered = sorted(samples)
    rank = min(math.ceil(want / 100.0 * n), n - min_beyond)
    rank = max(rank, 1)
    return 100.0 * rank / n, ordered[rank - 1], n - rank


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover. `spans` are dicts with `id`, `parent` (0 for
    a root), `ts` and `dur`; returns {id: self time}."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append(s)
    result = {}
    for s in spans:
        start, end = s["ts"], s["ts"] + s["dur"]
        pieces = sorted(
            (max(start, c["ts"]), min(end, c["ts"] + c["dur"]))
            for c in children[s["id"]])
        covered = 0.0
        run_start = run_end = None
        for a, b in pieces:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        result[s["id"]] = s["dur"] - covered
    return result


def breakdown(spans):
    """Per span name: calls, total and self time, and self time's share of
    all root-span time. Returns a list of dicts sorted by self time."""
    selfs = self_times(spans)
    root_total = sum(s["dur"] for s in spans if not s["parent"])
    rows = {}
    for s in spans:
        row = rows.setdefault(s["name"], {"name": s["name"], "calls": 0,
                                          "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += s["dur"]
        row["self"] += selfs[s["id"]]
    for row in rows.values():
        row["share"] = row["self"] / root_total if root_total else 0.0
    return sorted(rows.values(), key=lambda r: -r["self"])
