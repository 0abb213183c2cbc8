"""Workload inputs, made from the seed alone.

The replay workloads are stratified samples: every stratum (suite, size
parameter, order size n) contributes a fixed number of instances and the seed
only picks which orders fill it.  The cost of an instance depends mostly on
its stratum, so the total work of a sample barely moves with the seed while
the instances themselves do.  Each repetition of a run draws its own sample
from (seed, repetition).  Every (suite, parameter) also replays the two
extreme orders of the largest size, the chain and the antichain: the
antichain holds the memory peak (ppos k=6 enumerates all 7^6 sequences) and
much of the latency tail, which would otherwise move with the seed.
"""

import hashlib
import json
import math
import random

WORKLOADS = ("scan", "scan-par", "vertex", "grid")

# (suite, instance key, key values, {order size n: orders per stratum}); a
# stratum is one (suite, key value, n).  Partition-keyed suites take every
# partition of each listed weight.  Key values follow the suites' default
# bounds (ppos k <= 6, thn1 l <= 5, gasharov weight <= 5, lgv weight and
# involutions k <= 4).  Vertex orders go one size past the default max_n,
# to n = 7; grid orders stay at the defaults (gasharov n <= 5, lgv and
# involutions n <= 4), where an instance costs milliseconds, so one run
# replays thousands and the latency tail is not a handful of n = 6 grids.
VERTEX_STRATA = {
    "full": [
        ("ppos", "k", range(1, 7), {7: 2, 6: 3, 5: 3, 4: 2, 3: 2}),
        ("thn1", "l", range(2, 6), {7: 2, 6: 3, 5: 3, 4: 2, 3: 2}),
    ],
    "smoke": [
        ("ppos", "k", range(1, 4), {4: 1, 3: 1}),
        ("thn1", "l", range(2, 4), {4: 1, 3: 1}),
    ],
}

GRID_STRATA = {
    "full": [
        ("gasharov", "partition", range(1, 6), {5: 4, 4: 3, 3: 2}),
        ("lgv", "partition", range(1, 5), {4: 5, 3: 2, 2: 1}),
        ("involutions", "k", range(1, 5), {4: 6, 3: 3, 2: 1}),
    ],
    "smoke": [
        ("gasharov", "partition", range(1, 4), {3: 1, 2: 1}),
        ("lgv", "partition", range(1, 3), {3: 1, 2: 1}),
        ("involutions", "k", range(1, 3), {3: 1}),
    ],
}

SCAN_MAX_N = {"full": 8, "smoke": 4}

# Orders cross-checked against the brute-force colouring oracle, by size.
# The oracle costs 4-12 s per order at n = 8, so runs stop at n = 7.
ORACLE_PROFILE = {"full": {7: 3, 6: 2, 5: 1}, "smoke": {4: 1, 3: 1}}


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def scan_instances(max_n):
    """Orders a scan up to max_n must visit: the sum of Catalan(1..max_n)."""
    return sum(catalan(n) for n in range(1, max_n + 1))


def scan_jobs(workload, nproc):
    return min(2, nproc) if workload == "scan-par" else 1


def _rng(workload, seed, purpose):
    return random.Random("%s:%s:%d" % (workload, purpose, seed))


def _orders_by_n(chroma, sizes):
    return {n: [str(u) for u in chroma.enumerate_uios(n)] for n in sizes}


def extremes(n):
    """Threshold vectors of the n-element chain and antichain."""
    return [",".join(str(i + 1) for i in range(1, n + 1)), ",".join([str(n + 1)] * n)]


def replay_instances(workload, seed, size, chroma, rep=0):
    """The (suite, instance) pairs repetition `rep` of a replay run replays.
    Each repetition draws its own sample, so a run's latency tail pools
    many distinct instances rather than one sample's few heaviest."""
    strata = (VERTEX_STRATA if workload == "vertex" else GRID_STRATA)[size]
    rng = _rng(workload, seed, "sample-%d" % rep)
    sizes = sorted({n for *_, profile in strata for n in profile})
    orders = _orders_by_n(chroma, sizes)
    out = []
    for suite, key, values, profile in strata:
        if key == "partition":
            params = [
                ",".join(str(p) for p in lam)
                for w in values
                for lam in chroma.partitions_of(w)
            ]
        else:
            params = list(values)
        top = max(profile)
        fixed = extremes(top)
        for param in params:
            chosen = list(fixed)
            for n, count in sorted(profile.items()):
                pool = [u for u in orders[n] if u not in fixed]
                chosen += rng.sample(pool, count)
            out.extend((suite, {"uio": uio, key: param}) for uio in chosen)
    return out


def oracle_orders(workload, seed, size, chroma):
    rng = _rng(workload, seed, "oracle")
    profile = ORACLE_PROFILE[size]
    orders = _orders_by_n(chroma, profile)
    return [u for n, count in sorted(profile.items()) for u in rng.sample(orders[n], count)]


def canonical_report(report_json):
    """A report without its timing fields (seconds, bounds.jobs), so the
    digest survives their planned move out of the canonical output."""
    out = dict(report_json)
    out.pop("seconds", None)
    bounds = dict(out.get("bounds", {}))
    bounds.pop("jobs", None)
    out["bounds"] = bounds
    return out


def digest(items):
    body = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(body).hexdigest()
