"""Build ``perfbench/catalog.json``: the reference answers of the ``bound-*``
workloads.

Run from the repository root, on commit ``COMMIT`` (4a9dfa4), whose
answers the catalog records::

    python3 perfbench/make_catalog.py [workload ...]

Every candidate query is run once, in this process, under a per-query
alarm.  A query enters a drawable pool only if it answers within
``POOL_LIMIT_S``, so that every seed draws work of a comparable size; the
anchors and the two known hangs are listed explicitly.

The expected interval of an entry comes from the paper's closed form where
the paper settles the value (the ``source`` names the result), and from the
engine otherwise (``source`` = ``engine@4a9dfa4``).  Where both exist they
must agree, or the build stops.  The two hangs get their interval from a run
of the same engine in which cyclic inclusions C_d <= C_n are certified
from d | n and S_n / A_n element orders come from a memoized partition walk;
both shortcuts are exact, and are checked to reproduce the anchors' traces.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import signal
import sys
import time
from functools import lru_cache

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from edim import crossratio, edengine, groups, pgl2  # noqa: E402
from edim.cli import parse_field, parse_group  # noqa: E402
from edim.exactfield import fq_context  # noqa: E402
from edim.fielddesc import (YES, Cyclotomic, FiniteField,  # noqa: E402
                            RationalField, char_of)

POOL_LIMIT_S = {"bound-structural": 0.05, "bound-pgl2": 0.1}
PROBE_TIMEOUT_S = 2.0

STRUCT_FIELDS = (
    "Q", "Qzeta(3)", "Qzeta(4)", "Qzeta(5)", "Qzeta(7)", "Qzeta(12)",
    "F(2)", "F(4)", "F(29)", "F(31)", "F(32)", "F(37)", "F(49)", "F(64)",
    "F(81)", "F(121)",
    "custom{char=0}",
    "custom{char=0, zeta_yes=[5], real_zeta_yes=[5]}",
    "custom{char=0, zeta_no=[3], real_zeta_no=[5,7]}",
    "custom{char=2, fp_dim=inf}",
    "custom{char=3, zeta_yes=[4], real_zeta_yes=[4], fp_dim=2}",
)
STRUCT_GROUPS = {
    # n <= 12: larger S_n, A_n, D_n pay a partition walk that only the
    # first such query of a session pays, which would make cost depend on
    # the draw; S20/Q and A20/Q cover it as anchors
    "sym_alt": ["S%d" % n for n in range(2, 13)]
    + ["A%d" % n for n in range(3, 13)],
    "dih_cyc": ["D%d" % n for n in range(3, 13)]
    + ["C%d" % n for n in range(2, 41)]
    + ["C%d" % n for n in (60, 84, 90, 105, 120, 210)],
    "elemab": ["E(2,%d)" % r for r in range(1, 6)]
    + ["E(3,%d)" % r for r in range(1, 4)]
    + ["E(5,1)", "E(5,2)", "E(7,1)", "E(7,2)", "E(11,1)", "E(13,1)"],
    "product": ["S3xC2", "S3xC3", "A4xC3", "S4xC2", "S4xC5", "A5xC2",
                "A5xC3", "S5xC2", "S6xC2", "D5xC2", "D7xC3", "C3xC3",
                "C2xC2xC2", "C6xC10", "C5xC5", "E(2,2)xC3", "E(3,2)xC2",
                "S3xS3", "A4xA4", "D3xD5", "S4xE(2,2)", "C7xC11",
                "A6xC5", "S7xC3", "D9xC2"],
}
STRUCT_ANCHORS = ("S20/Q", "A20/Q", "C6006/Q", "C9240/Q", "C2310/Q", "S5xC3/Q")
STRUCT_HANGS = ("C720720/Q",)

PGL2_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
PGL2_GROUPS = (
    ["D%d" % n for n in range(3, 12, 2)]
    + ["C%d" % n for n in range(2, 31)]
    + ["E(2,%d)" % r for r in range(1, 7)]
    + ["E(3,%d)" % r for r in range(1, 4)]
    + ["E(5,1)", "E(5,2)", "E(7,1)", "E(7,2)"]
    + ["D3xC2", "C3xC3", "C2xC3", "C5xC2", "D5xC2", "C3xC5", "C2xC2xC2",
       "E(2,2)xC3", "D3xC3", "C4xC2"]
)
PGL2_ANCHORS = ("E(3,2)/F(13)", "E(5,2)/F(11)", "E(2,2)/F(16)", "D7/F(13)")
# run in full every pass: only the first D13 and D15 of a session pay the
# S13 / S15 partition walk, so drawing them would make cost depend on the draw
PGL2_FULL = ("D13", "D15")
PGL2_HANGS = ("D30/F(25)",)

COMMIT = "4a9dfa4"  # the commit whose engine answers are the references
HANG_NOTE = ("engine@%s with two exact shortcuts (C_d <= C_n from "
             "d | n; memoized S_n/A_n element orders), see hang_interval"
             % COMMIT)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_query(text, limit=PROBE_TIMEOUT_S):
    """(interval json, seconds) or (None, reason) for 'group/field'; the
    partition-walk cache starts empty, the PGL_2 census does not."""
    gtext, ftext = text.split("/", 1)
    groups._partition_orders.cache_clear()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        g, fd = parse_group(gtext), parse_field(ftext)
        interval, nodes = edengine.bound(g, fd)
        edengine.replay_trace(nodes)
    except _Timeout:
        return None, "timeout"
    except Exception as exc:  # refusals and parse errors leave the pool
        return None, type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return interval.json(), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# closed forms from the paper
# ---------------------------------------------------------------------------

def _has_zeta(fd, p):
    if isinstance(fd, RationalField):
        return p == 2
    if isinstance(fd, Cyclotomic):
        return p == 2 or fd.m % p == 0
    if isinstance(fd, FiniteField):
        return fd.p != p and (fd.q - 1) % p == 0
    return False


def closed_form(gtext, ftext):
    """(lo, hi, source) where the paper settles ed_K(G), else None."""
    g, fd = parse_group(gtext), parse_field(ftext)
    l = char_of(fd)
    if isinstance(g, groups.Sym):
        n = g.n
        if n in (2, 3):
            return 1, 1, "Thm 1.2(2)"
        if n in (4, 5):
            return 2, 2, "Thm 1.2(2)"
        if n == 6 and l != 2:
            return 3, 3, "Thm 1.2(3)"
        if n >= 7 and isinstance(fd, RationalField):
            return n // 2, n - 3, "Thm 5.4 with Prop 3.2 (S_n/Q)"
    if isinstance(g, groups.Alt) and g.n == 5 and ftext == "F(4)":
        return 1, 1, "Lemma 5.5 (A5 = SL_2(F_4)), A5/F(4) = [1,1]"
    if isinstance(g, groups.ElemAb):
        if isinstance(fd, FiniteField) and fd.p == g.p and fd.k >= g.r:
            return 1, 1, "Prop 5.10 ([K:F_p] >= r)"
        if l != g.p and _has_zeta(fd, g.p):
            return g.r, g.r, "Thm 4.7 (zeta_p in K)"
    if isinstance(g, groups.Dih) and g.n % 2 == 1 \
            and isinstance(fd, FiniteField) and fd.q <= pgl2.Q_CAP:
        crit = edengine.dn_criterion(g.n, fd)
        wit = pgl2.pgl2_embeds(g, fq_context(fd.p, fd.k))
        if (crit is YES) != (wit is not None):
            raise SystemExit("Thm 5.8 disagrees with pgl2_embeds on %s/%s"
                             % (gtext, ftext))
        if crit is YES:
            return 1, 1, "Thm 5.8 (cross-checked by exhaustive pgl2_embeds)"
    return None


def _iv(lo, hi):
    return {"lo": lo, "hi": hi}


def entry(text, got, seconds):
    gtext, ftext = text.split("/", 1)
    cf = closed_form(gtext, ftext)
    if cf is not None:
        want = _iv(cf[0], cf[1])
        if got != want:
            raise SystemExit("%s: engine %s != closed form %s (%s)"
                             % (text, got, want, cf[2]))
        source = cf[2]
    else:
        source = "engine@%s" % COMMIT
    return {"query": text, "expect": got, "source": source,
            "seed_s": round(seconds, 4)}


@lru_cache(maxsize=None)
def _lcm_parities(n, largest):
    """{(lcm, number of parts mod 2)} over partitions of n, parts <= largest."""
    if n == 0:
        return frozenset({(1, 0)})
    out = set()
    for first in range(min(n, largest), 0, -1):
        for lcm, parity in _lcm_parities(n - first, first):
            out.add((math.lcm(first, lcm), 1 - parity))
    return frozenset(out)


@lru_cache(maxsize=None)
def _partition_orders(n, even_only):
    """groups._partition_orders without enumerating the partitions."""
    return frozenset(lcm for lcm, parity in _lcm_parities(n, n)
                     if not even_only or (n - parity) % 2 == 0)


@contextlib.contextmanager
def _accelerated():
    """The engine with two exact shortcuts that do not change its answers:
    C_d <= C_n is certified from d | n, and element orders of S_n / A_n come
    from a memoized walk over partitions."""
    cert, orders = edengine.embedding_certificate, groups._partition_orders

    def structural(h, g):
        if isinstance(h, groups.Cyc) and isinstance(g, groups.Cyc):
            return True if g.n % h.n == 0 else None
        return cert(h, g)

    edengine.embedding_certificate = structural
    groups._partition_orders = _partition_orders
    try:
        yield
    finally:
        edengine.embedding_certificate = cert
        groups._partition_orders = orders


def hang_interval(text):
    """The interval the engine would reach on a query that hangs, from the
    accelerated engine, after checking that it reproduces the anchors'
    traces exactly."""
    for check in STRUCT_ANCHORS[:5]:
        gtext, ftext = check.split("/", 1)
        args = parse_group(gtext), parse_field(ftext)
        plain = edengine.bound(*args)
        with _accelerated():
            fast = edengine.bound(*args)
        if fast != plain:
            raise SystemExit("the accelerated engine changes %s" % check)
    with _accelerated():
        got, _ = run_query(text, limit=300.0)
    if got is None:
        raise SystemExit("no interval for %s" % text)
    return got


def build_structural():
    strata = {"anchor": [entry(q, *run_query(q))
                         for q in STRUCT_ANCHORS]}
    for name, glist in STRUCT_GROUPS.items():
        pool = []
        for gtext in glist:
            for ftext in STRUCT_FIELDS:
                q = "%s/%s" % (gtext, ftext)
                got, secs = run_query(q)
                if got is None or secs > POOL_LIMIT_S["bound-structural"]:
                    continue
                pool.append(entry(q, got, secs))
        strata[name] = pool
    strata["hang"] = [{"query": q, "expect": hang_interval(q),
                       "source": HANG_NOTE}
                      for q in STRUCT_HANGS]
    return strata


def build_pgl2():
    strata = {"anchor": [entry(q, *run_query(q, 60.0))
                         for q in PGL2_ANCHORS]}
    for q_ in PGL2_QS:
        # pool costs are measured with the census built, as in a session
        fd = parse_field("F(%d)" % q_)
        pgl2.order_census(fq_context(fd.p, fd.k))
        pool = []
        for gtext in PGL2_GROUPS:
            q = "%s/F(%d)" % (gtext, q_)
            got, secs = run_query(q)
            if got is None or secs > POOL_LIMIT_S["bound-pgl2"]:
                continue
            pool.append(entry(q, got, secs))
        strata["F%d" % q_] = pool
    strata["dn13_15"] = [entry("%s/F(%d)" % (g, q_), *run_query(
        "%s/F(%d)" % (g, q_))) for g in PGL2_FULL for q_ in PGL2_QS]
    strata["hang"] = [{"query": q, "expect": hang_interval(q),
                       "source": HANG_NOTE}
                      for q in PGL2_HANGS]
    return strata


def build_symbolic():
    """Every cross-ratio symbol for n = 5, 6 with its cost from an empty
    rewrite cache; the answers need no catalog (check_rewrite is exact)."""
    strata = {}
    for n in (5, 6):
        pool = []
        for ix in itertools.permutations(range(1, n + 1), 4):
            crossratio._rewrite.cache_clear()
            sym = crossratio.CRSymbol(n, ix)
            t0 = time.perf_counter()
            crossratio.cr_rewrite(sym)
            if not crossratio.check_rewrite(sym):
                raise SystemExit("check_rewrite fails on %s" % (ix,))
            pool.append({"n": n, "indices": list(ix),
                         "seed_s": round(time.perf_counter() - t0, 4)})
        strata["cr%d" % n] = pool
    return strata


SECTIONS = {"bound-structural": build_structural, "bound-pgl2": build_pgl2,
            "symbolic": build_symbolic}


def main(argv):
    """[workload ...]: rebuild those sections (default all)."""
    path = os.path.join(ROOT, "perfbench", "catalog.json")
    cat = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            cat = json.load(fh)
    cat["commit"] = COMMIT
    unknown = [wl for wl in argv if wl not in SECTIONS]
    if unknown:
        raise SystemExit("usage: make_catalog.py [%s ...]"
                         % " | ".join(SECTIONS))
    for wl in argv or list(SECTIONS):
        cat["workloads"][wl] = SECTIONS[wl]()
    with open(path, "w") as fh:
        json.dump(cat, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for wl, strata in cat["workloads"].items():
        print(wl, {k: len(v) for k, v in strata.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
