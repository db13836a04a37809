"""Seeded workload generation for the edim benchmark (stdlib only).

A workload is a list of operations drawn by seed from fixed strata.  Every
seed draws the same number of operations from each stratum; only the draw
and the order change.  A stratum of ``count`` operations is sorted by the
cost recorded in ``catalog.json`` (``seed_s``) and cut into ``count`` bands
of equal size; one operation is drawn from each band, so every seed draws
work of the same size and shape.  The pools and the reference answers come
from ``catalog.json`` (see ``make_catalog.py``); the Tschirnhaus stratum
runs every (degree, characteristic) pair of acceptance criterion 8 the same
number of times, each with its own seeded points.

Operations run in this order: the ``anchor`` stratum in catalog order, so
that the heavy queries always meet the same cache state; the other strata,
shuffled together; and last the ``hang`` stratum, the queries that exceed
the kill limit at the seed commit, so that stopping them cannot flush the
caches the other operations built.
"""

from __future__ import annotations

import functools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# operations drawn per stratum; None means "all of them"
STRATA = {
    "bound-structural": {"anchor": None, "sym_alt": 50, "dih_cyc": 50,
                         "elemab": 36, "product": 50, "hang": None},
    "bound-pgl2": dict({"anchor": None, "dn13_15": None, "hang": None},
                       **{"F%d" % q: 20 for q in
                          (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)}),
    "symbolic": {"cr5": 60, "cr6": 90, "tsch": 150},
}

# per-operation kill limit (s): well above the slowest surviving operation
# of the workload at the seed commit
KILL_LIMIT_S = {"bound-structural": 6.0, "bound-pgl2": 30.0, "symbolic": 10.0}

# the (degree, characteristic) pairs of acceptance criterion 8
TSCH_PAIRS = ((2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0),
              (2, 2), (3, 3), (3, 2), (4, 3), (5, 2), (5, 3),
              (6, 5), (7, 2), (7, 3))

WORKLOADS = tuple(STRATA)


@functools.lru_cache(maxsize=None)
def catalog():
    """The parsed ``catalog.json``; read once per process."""
    with open(os.path.join(HERE, "catalog.json")) as fh:
        return json.load(fh)


def _pools(workload):
    strata = catalog()["workloads"][workload]
    kind = "cr" if workload == "symbolic" else "bound"
    pools = {name: [dict(e, kind=kind) for e in entries]
             for name, entries in strata.items()}
    if workload == "symbolic":
        pools["tsch"] = [{"kind": "tsch", "n": n, "char": c}
                         for n, c in TSCH_PAIRS]
    return pools


def _banded(pool, count, rng):
    """One entry from each of ``count`` equal cost bands of the pool."""
    ranked = sorted(pool, key=lambda e: (e["seed_s"], json.dumps(e)))
    return [dict(rng.choice(ranked[k * len(ranked) // count:
                                   (k + 1) * len(ranked) // count]))
            for k in range(count)]


def generate(workload, seed):
    """The operation list of one run: dicts with a ``stratum`` key."""
    if workload not in STRATA:
        raise ValueError("unknown workload %r (have %s)"
                         % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (workload, seed))
    pools = _pools(workload)
    head, body, tail = [], [], []
    for name, count in STRATA[workload].items():
        pool = pools[name]
        if name == "tsch":
            picked = [dict(p, point_seed=rng.randrange(2 ** 32))
                      for p in pool for _ in range(count // len(pool))]
        elif count is None:
            picked = [dict(p) for p in pool]
        else:
            picked = _banded(pool, count, rng)
        for op in picked:
            op["stratum"] = name
        {"anchor": head, "hang": tail}.get(name, body).extend(picked)
    rng.shuffle(body)
    return head + body + tail


def stratum_counts(ops):
    counts = {}
    for op in ops:
        counts[op["stratum"]] = counts.get(op["stratum"], 0) + 1
    return counts


def check_seeds(workload, seed):
    """Two seeds must give different draws with equal stratum counts."""
    a, b = generate(workload, seed), generate(workload, seed + 1)
    return a != b and stratum_counts(a) == stratum_counts(b)
