import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from edim import cli, edengine, pgl2
from edim.edengine import (INF, BoundInterval, RuleCatalog, Thm46Result,
                           TooLarge, TraceNode, _thm45_cyclic, atom_aliases,
                           bound, canon, center_order, check_thm46,
                           dn_criterion, l_core_trivial, product_views,
                           replay_trace, trace_json)
from edim.cli import parse_field, parse_group
from edim.errors import DependentAlphas, Inconsistent
from edim.exactfield import fq_context, is_prime
from edim.fielddesc import (NO, UNKNOWN, YES, Custom, Cyclotomic, FiniteField,
                            RationalField, contains_real_zeta,
                            finite_field_from_q)
from edim import groups
from edim.groups import (Alt, Cyc, Dih, ElemAb, Product, Sym, degree,
                         element_orders, expr_order, pmul, realize)
from oracles import (_pow, a_lower_recurrence, center, check_thm45,
                     enumerated_orders, l_core, porder, s_lower_recurrence)
from test_cli import PRODUCT_ROWS

Q = RationalField()
F2 = FiniteField(2, 1)
F4 = FiniteField(2, 2)


# --- interval algebra -------------------------------------------------------

def test_interval_meet_and_validation():
    a = BoundInterval(1, 5)
    b = BoundInterval(3, 9)
    assert a.meet(b) == BoundInterval(3, 5)
    with pytest.raises(Inconsistent):
        BoundInterval(4, 2)
    with pytest.raises(Inconsistent):
        a.meet(BoundInterval(6, 9))


# --- canonicalization and aliases ------------------------------------------

def test_canon_identities():
    assert canon(Sym(2)) == Cyc(2)
    assert canon(Alt(3)) == Cyc(3)
    assert canon(Dih(1)) == Cyc(2)
    assert canon(Dih(2)) == ElemAb(2, 2)
    assert canon(Dih(3)) == Sym(3)
    assert canon(ElemAb(5, 1)) == Cyc(5)
    assert canon(Product(Cyc(1), Sym(4))) == Sym(4)


def test_canon_product_flatten_and_sort():
    e = Product(Product(Cyc(3), Sym(4)), Cyc(2))
    f = Product(Cyc(2), Product(Sym(4), Cyc(3)))
    assert canon(e) == canon(f)


def test_deep_products_stay_flat():
    # 3,000 atoms built one Product at a time: each structural function
    # loops over the flat factors, so none meets the recursion limit, and
    # bound refuses the product past its atom cap
    atoms = [Sym(3), Cyc(2), ElemAb(3, 2), Dih(5), Alt(4)] * 600
    e = atoms[0]
    for a in atoms[1:]:
        e = Product(e, a)
    assert e == Product(*atoms) and e.factors == tuple(atoms)
    assert sys.getrecursionlimit() < len(atoms)
    assert str(e) == " x ".join(map(str, atoms))
    assert hash(e) == hash(Product(*atoms))
    assert parse_group(str(e)) == e
    assert degree(e) == 600 * (3 + 2 + 6 + 5 + 4)
    assert expr_order(e) == (6 * 2 * 9 * 10 * 12) ** 600
    assert canon(e).factors == tuple(sorted(atoms, key=str))
    assert center_order(e) == (2 * 9) ** 600
    with pytest.raises(TooLarge):
        bound(e, Q)


def test_canon_preserves_order():
    rng = random.Random(1)
    atoms = [Sym(4), Alt(5), Dih(6), Cyc(9), ElemAb(2, 2)]
    for _ in range(30):
        pick = rng.sample(atoms, rng.randrange(1, 4))
        e = pick[0]
        for a in pick[1:]:
            e = Product(e, a)
        assert expr_order(canon(e)) == expr_order(e)


def test_atom_aliases_are_isomorphic():
    for a in (Cyc(2), Cyc(3), Sym(3), ElemAb(2, 2), Cyc(5)):
        for b in atom_aliases(a):
            assert expr_order(b) == expr_order(a)
            assert enumerated_orders(realize(b)) \
                == enumerated_orders(realize(a))


def test_product_views_preserve_order():
    for e in (ElemAb(3, 3), Cyc(12), Cyc(30), Product(Sym(3), Cyc(4))):
        for factors in product_views(e):
            assert len(factors) >= 2
            prod = 1
            for f in factors:
                prod *= expr_order(f)
            assert prod == expr_order(e)


# --- structural facts vs enumeration ---------------------------------------

@pytest.mark.parametrize("e", [Sym(3), Sym(4), Sym(5), Alt(4), Alt(5),
                               Dih(4), Dih(5), Dih(6), Cyc(8), Cyc(12),
                               ElemAb(2, 3), ElemAb(3, 2),
                               Product(Sym(3), Cyc(4))])
def test_center_order_matches_enumeration(e):
    assert center_order(e) == center(realize(e)).order


@pytest.mark.parametrize("e", [Sym(3), Sym(4), Alt(4), Alt(5), Dih(5),
                               Dih(4), Dih(9), Cyc(12), ElemAb(3, 2)])
@pytest.mark.parametrize("l", [2, 3, 5])
def test_l_core_trivial_matches_enumeration(e, l):
    assert l_core_trivial(e, l) == (l_core(realize(e), l).order == 1)


@pytest.mark.parametrize("e", [Sym(5), Alt(6), Dih(7), Cyc(12),
                               ElemAb(2, 3), Product(Dih(5), Cyc(3))])
def test_expr_element_orders_matches_enumeration(e):
    assert element_orders(e) == enumerated_orders(realize(e))


# --- theorem predicate checks ----------------------------------------------

def test_check_thm45_cases():
    g = realize(Sym(5))
    sigma = next(x for x in g.elements() if porder(x) == 2)
    # sigma not central in S_5: rejected outright
    with pytest.raises(ValueError, match="not central"):
        check_thm45(g, sigma, Q)

    c2 = realize(Cyc(2))
    s = next(x for x in c2.elements() if porder(x) == 2)
    assert check_thm45(c2, s, FiniteField(3, 1)).applicable
    # over Q(zeta_8), zeta_4 is present, so condition (iv) fails inside C_4
    c4 = realize(Cyc(4))
    s4sq = next(x for x in c4.elements() if porder(x) == 2)
    assert not check_thm45(c4, s4sq, Cyclotomic(8)).applicable
    # ...but for C_2 itself there is no larger central tau: applicable
    assert check_thm45(c2, s, Cyclotomic(8)).applicable

    c3 = realize(Cyc(3))
    s3 = next(x for x in c3.elements() if porder(x) == 3)
    assert check_thm45(c3, s3, F4).applicable
    assert not check_thm45(c3, s3, Q).applicable  # no zeta_3, no character

    # C_4 with sigma = square of a generator: every character kills sigma
    gen = next(x for x in c4.elements() if porder(x) == 4)
    res = check_thm45(c4, pmul(gen, gen), Q)
    assert not res.applicable


RCE_FIELDS = (["Q"] + ["Qzeta(%d)" % m for m in (3, 4, 5, 6, 8, 9, 12)]
              + ["F(%d)" % q for q in (2, 3, 4, 5, 7, 9, 13, 16, 25)]
              + ["custom{char=0}", "custom{char=0, zeta_yes=[2], zeta_no=[4]}",
                 "custom{char=2, fp_dim=inf}", "custom{char=3, fp_dim=2}",
                 "custom{char=5, zeta_yes=[4], fp_dim=1}"])


@pytest.mark.parametrize("text", RCE_FIELDS)
def test_thm45_cyclic_matches_the_enumerating_check(text):
    # R-CE's hypothesis on C_n with sigma = g^(n/p), against Thm 4.5's
    # (i)-(iv) checked on the permutation group itself
    fd = parse_field(text)
    for n in range(2, 31):
        g = realize(Cyc(n))
        (gen,) = g.generators
        for p in (p for p in range(2, n) if n % p == 0 and is_prime(p)):
            want = check_thm45(g, _pow(gen, n // p), fd)
            assert _thm45_cyclic(n, p, fd) == want.applicable, \
                (n, p, text, want.reason)


def test_check_thm46_cases():
    assert check_thm46(Cyc(1), 2, Q).applicable          # C_2 over Q
    assert check_thm46(Cyc(1), 3, F4).applicable         # zeta_3 in F_4
    assert not check_thm46(Cyc(1), 3, Q).applicable      # zeta_3 not in Q
    # condition (iv): another prime dividing |Z(G')| whose zeta is present
    assert not check_thm46(Cyc(3), 2, Cyclotomic(3)).applicable
    assert check_thm46(Cyc(3), 2, Q).applicable
    # condition (i): char l with nontrivial O_l(G')
    assert not check_thm46(Cyc(4), 3, FiniteField(2, 1)).applicable
    # |Z(G')| is read atom by atom: E(p,r) gives p, with p^r never factored
    assert check_thm46(ElemAb(1000003, 2), 2, Q).applicable
    assert check_thm46(Product(ElemAb(3, 10 ** 4), Cyc(2)), 2,
                       Cyclotomic(3)).reason == "(iv) zeta_3 present"


def test_dn_criterion_table():
    # char 0: n odd and real zeta_n in K
    assert dn_criterion(3, Q) is YES
    assert dn_criterion(5, Q) is NO
    assert dn_criterion(5, Cyclotomic(5)) is YES
    assert dn_criterion(4, Cyclotomic(8)) is NO   # n even
    # char p | n: only n = p works (odd p)
    assert dn_criterion(5, FiniteField(5, 1)) is YES
    assert dn_criterion(15, FiniteField(5, 1)) is NO
    # char 2: n = 2 needs at least 4 elements
    assert dn_criterion(2, F4) is YES
    assert dn_criterion(2, F2) is NO
    assert dn_criterion(7, FiniteField(2, 3)) is YES
    custom = Custom(characteristic=0)
    assert dn_criterion(9, custom) is UNKNOWN


# --- engine results ---------------------------------------------------------

@pytest.mark.parametrize("g,fd,lo,hi", [
    (Cyc(1), Q, 0, 0),
    (Sym(6), Q, 3, 3),
    (Sym(7), Q, 3, 4),
    (ElemAb(3, 2), F4, 2, 2),
    (ElemAb(2, 2), F2, 2, 2),
    (ElemAb(2, 2), Q, 2, 2),
    (Dih(7), Q, 2, 4),
    (Alt(5), F4, 1, 1),
    (Sym(2), F2, 1, 1),
    (Cyc(6), Q, 2, 2),
    (Alt(8), F2, 2, 3),
    (Dih(5), Cyclotomic(5), 1, 1),
    (Sym(4), F4, 2, 2),
    (Dih(2), F4, 1, 1),
    (Dih(3), FiniteField(3, 1), 1, 1),
    (Cyc(4), Cyclotomic(4), 1, 1),
    (Product(Alt(5), Cyc(3)), Cyclotomic(3), 3, 3),
])
def test_engine_known_values(g, fd, lo, hi):
    iv, _ = bound(g, fd)
    assert (iv.lo, iv.hi) == (lo, hi), iv


def test_engine_deterministic():
    for g, fd in [(Sym(8), Q), (Dih(9), F4), (Product(Sym(3), Cyc(5)), Q)]:
        r1 = bound(g, fd)
        r2 = bound(g, fd)
        assert r1[0] == r2[0]
        assert [n.json() for n in r1[1]] == [n.json() for n in r2[1]]


# spellings of one group that canon keeps apart, so the engine bounds
# each on its own
_ISOMORPHIC = [(Cyc(6), Product(Cyc(2), Cyc(3))),
               (ElemAb(2, 2), Product(Cyc(2), Cyc(2)), Dih(2)),
               (ElemAb(5, 2), Product(Cyc(5), Cyc(5))),
               (Product(Cyc(6), Cyc(10)), Product(Cyc(2), Cyc(30))),
               (Product(ElemAb(2, 2), Cyc(3)), Product(Cyc(2), Cyc(6))),
               (Sym(3), Dih(3)), (Dih(6), Product(Sym(3), Cyc(2)))]
# each tower K_0 <= K_1 <= ...: F(p^a) <= F(p^ab), Q <= Qzeta(m) <= Qzeta(mk)
_TOWERS = [[finite_field_from_q(q) for q in qs]
           for qs in ((2, 4, 16), (2, 8), (3, 9, 81), (3, 27), (5, 25),
                      (7, 49))]
_TOWERS += [[Q, Cyclotomic(m), Cyclotomic(m * k)]
            for m, k in ((3, 4), (4, 2), (5, 3), (3, 3))]


def test_consistency_under_field_extension():
    # Lemma 2.9 as an oracle: each derived interval holds its true ed, so
    # no two intervals may contradict what the lemma says of the true
    # values.  On a fixed, seeded grid, the laws checked are:
    # (a) isomorphic spellings give intervals that intersect;
    # (b) enlarging K only shrinks ed, so lo(G/K') <= hi(G/K) for K <= K';
    # (c) lo(H) <= hi(G) for every pair with an embedding certificate;
    # (d) lo(G1 x G2) <= hi(G1) + hi(G2), and lo(Gi) <= hi(G1 x G2).
    rng = random.Random(12)
    pool = ([Sym(n) for n in range(2, 10)] + [Alt(n) for n in range(3, 10)]
            + [Dih(n) for n in range(1, 13)] + [Cyc(n) for n in range(1, 16)]
            + [ElemAb(2, 2), ElemAb(2, 3), ElemAb(3, 2), ElemAb(3, 3),
               ElemAb(5, 2), ElemAb(7, 2)])
    fields = list(dict.fromkeys(fd for tower in _TOWERS for fd in tower))
    fields += [Custom(characteristic=0), Custom(characteristic=2, fp_dim=INF)]
    ivs, bad = {}, []

    def iv(g, fd):
        if (g, fd) not in ivs:
            ivs[g, fd] = bound(g, fd)[0]
        return ivs[g, fd]

    for fd in fields:  # (a)
        for spellings in _ISOMORPHIC:
            got = [iv(g, fd) for g in spellings]
            if max(i.lo for i in got) > min(i.hi for i in got):
                bad.append(("a", spellings, fd, got))
    for tower in _TOWERS:  # (b)
        for i, j in itertools.combinations(range(len(tower)), 2):
            for g in pool:
                if iv(g, tower[j]).lo > iv(g, tower[i]).hi:
                    bad.append(("b", g, tower[i], tower[j]))
    for base in (Q, Cyclotomic(3), F2, FiniteField(3, 1)):  # (b), K(zeta_m)
        for m in (3, 4, 5, 7, 8, 9):
            if base.char() and m % base.char() == 0:
                continue
            for g in pool:
                if iv(g, base.extend_with_zeta(m)).lo > iv(g, base).hi:
                    bad.append(("b", g, base, m))
    exprs = pool + [Product(Sym(3), Cyc(2)), Product(Alt(4), Cyc(3)),
                    Product(Cyc(2), Cyc(3)), Product(Cyc(3), Cyc(5))]
    pairs = [(h, g) for h in exprs for g in exprs if h != g
             and edengine.embedding_certificate(h, g) is not None]
    assert len(pairs) > 100
    for h, g in pairs:  # (c)
        for fd in rng.sample(fields, 3):
            if iv(h, fd).lo > iv(g, fd).hi:
                bad.append(("c", h, g, fd))
    for _ in range(300):  # (d)
        g1, g2, fd = rng.choice(pool), rng.choice(pool), rng.choice(fields)
        whole, a, b = iv(Product(g1, g2), fd), iv(g1, fd), iv(g2, fd)
        if whole.lo > a.hi + b.hi or max(a.lo, b.lo) > whole.hi:
            bad.append(("d", g1, g2, fd))
    assert bad == []


def test_recurrences_never_beat_closed_forms():
    for n in range(2, 21):
        iv, _ = bound(Sym(n), Q)
        assert s_lower_recurrence(n, Q) <= iv.lo
        iv2, _ = bound(Sym(n), F2)
        assert s_lower_recurrence(n, F2) <= iv2.lo
    for n in range(3, 21):
        iv, _ = bound(Alt(n), Q)
        assert a_lower_recurrence(n, Q) <= iv.lo


def test_trace_replay_and_tamper_detection():
    iv, nodes = bound(Sym(6), Q)
    state = replay_trace(nodes)
    assert iv in state.values()
    # tamper with a conclusion: replay must fail
    assert nodes
    last = nodes[-1]
    key, concl = last.conclusion
    bad = TraceNode(last.rule, last.citation, last.premises,
                    (key, BoundInterval(concl.lo, concl.hi + 1)))
    with pytest.raises(Inconsistent):
        replay_trace(nodes[:-1] + [bad])
    # tamper with a citation: replay must fail
    first = nodes[0]
    bad2 = TraceNode(first.rule, "Lemma 0.0", first.premises,
                     first.conclusion)
    with pytest.raises(Inconsistent):
        replay_trace([bad2] + nodes[1:])


def test_replay_rechecks_subgroup_certificates():
    iv, nodes = bound(Sym(5), Q)
    sub = lambda premise, conclusion: TraceNode(
        "R-SUB", RuleCatalog.citation("R-SUB"), (premise,), conclusion)
    s5 = (("S5", "Q"), iv)
    # S5 is not a subgroup of C7, nor of A5 (A5 <= S5 is the inclusion)
    for forged in (sub(s5, (("C7", "Q"), BoundInterval(2, INF))),
                   sub(s5, (("A5", "Q"), BoundInterval(2, INF)))):
        with pytest.raises(Inconsistent, match="R-SUB does not derive"):
            replay_trace(nodes + [forged])
    # the genuine upper bound D5 <= S5 replays; moved to another field, not
    replay_trace(nodes + [sub(s5, (("D5", "Q"), BoundInterval(0, 2)))])
    with pytest.raises(Inconsistent,
                       match=r"R-SUB does not derive \[0, 2\] for D5/F\(2\)"):
        replay_trace(nodes + [sub(s5, (("D5", "F(2)"), BoundInterval(0, 2)))])


def _node(rule, premises, conclusion):
    return TraceNode(rule, RuleCatalog.citation(rule), tuple(premises),
                     conclusion)


# one query per leaf rule whose trace narrows by that rule
_LEAF_QUERIES = [
    ("R-TRIV", Sym(3), Q), ("R-REP", Sym(5), Q), ("R-S-UB", Sym(7), Q),
    ("R-S-SMALL", Sym(4), Q), ("R-ELEMAB", ElemAb(3, 2), F4),
    ("R-S-LB", Sym(7), Q), ("R-A", Alt(6), Q), ("R-A-UB", Alt(8), F2),
    ("R-PGL-OBS", Cyc(5), Q), ("R-DN", Dih(5), Cyclotomic(5)),
    ("R-E22", ElemAb(2, 2), F2),
    ("R-EPR-CHARP", ElemAb(3, 2), FiniteField(3, 2)),
    ("R-CYC", Cyc(4), Cyclotomic(4)),
]


def test_leaf_queries_cover_every_leaf_rule():
    assert sorted(r for r, _, _ in _LEAF_QUERIES) \
        == sorted(r for r, _, _ in edengine.LEAF_RULES)


@pytest.mark.parametrize("rule,g,fd", _LEAF_QUERIES,
                         ids=[r for r, _, _ in _LEAF_QUERIES])
def test_replay_rejects_forged_leaf_conclusions(rule, g, fd):
    _, nodes = bound(g, fd)
    i = next(i for i, n in enumerate(nodes) if n.rule == rule)
    key, claimed = nodes[i].conclusion
    cur = replay_trace(nodes[:i]).get(key, edengine.TOP)
    if claimed.lo < claimed.hi:
        forged = BoundInterval(claimed.lo + 1, claimed.hi)
    elif claimed.lo < cur.hi:
        forged = BoundInterval(claimed.lo + 1, claimed.lo + 1)
    else:
        forged = BoundInterval(claimed.lo - 1, claimed.lo - 1)
    # a narrowing that arithmetic alone cannot tell from the genuine one
    assert cur.meet(forged) == forged != cur
    bad = _node(rule, (), (key, forged))
    with pytest.raises(Inconsistent, match="%s does not derive" % rule):
        replay_trace(nodes[:i] + [bad])
    # the same fact, genuine, replays; so does the whole trace
    replay_trace(nodes[:i] + [nodes[i]])
    replay_trace(nodes)


def test_replay_rejects_leaf_fact_of_another_query():
    # ed_Q(S7) is in [3, 4]; R-ELEMAB gives 5 only to (Z/5)^5 over Q(zeta_5)
    _, nodes = bound(Cyc(5), Q)
    bad = _node("R-ELEMAB", (), (("S7", "Q"), BoundInterval(5, 5)))
    with pytest.raises(Inconsistent, match="R-ELEMAB does not derive"):
        replay_trace(nodes + [bad])


def _state_after(g, fd):
    iv, nodes = bound(g, fd)
    return nodes, replay_trace(nodes)


def _premise(state, g, fd):
    key = (str(canon(g)), fd.describe())
    return key, state[key]


_FALSE_EDGES = [
    # S3 x C3 is not a factorization of S4 x C3
    ("R-PROD", (Product(Sym(3), Cyc(3)), Q),
     [(Cyc(3), Q), (Sym(3), Q)], (Product(Sym(4), Cyc(3)), Q),
     lambda c3, s3: BoundInterval(0, c3.hi + s3.hi)),
    # C5 is not a subgroup of S3
    ("R-SUB", (Cyc(5), Q), [(Cyc(5), Q)], (Sym(3), Q),
     lambda c5: BoundInterval(c5.lo, INF)),
    # R-EXT keeps the group and extends the field; here it does neither
    ("R-EXT", (Cyc(5), Q), [(Cyc(5), Q)], (Sym(7), Q),
     lambda c5: BoundInterval(c5.lo, INF)),
    # F(8) is not F(2)(zeta_3) = F(4)
    ("R-EXT", (Sym(7), FiniteField(2, 3)), [(Sym(7), FiniteField(2, 3))],
     (Sym(7), F2), lambda s7: BoundInterval(s7.lo, INF)),
    # S7 is not C5 x C_p, and no Thm 4.5 check links them
    ("R-CE", (Cyc(5), Q), [(Cyc(5), Q)], (Sym(7), Q),
     lambda c5: BoundInterval(c5.lo + 1, c5.hi + 1)),
    # Thm 4.6 needs zeta_3, which Q lacks
    ("R-CE-SPLIT", (Alt(5), Q), [(Alt(5), Q)], (Product(Alt(5), Cyc(3)), Q),
     lambda a5: BoundInterval(a5.lo + 1, INF if a5.hi is INF else a5.hi + 1)),
]
_FALSE_EDGE_IDS = ["R-PROD", "R-SUB", "R-EXT", "R-EXT-field", "R-CE",
                   "R-CE-SPLIT"]


@pytest.mark.parametrize("rule,base,premises,target,claim", _FALSE_EDGES,
                         ids=_FALSE_EDGE_IDS)
def test_replay_rejects_false_edge_hypotheses(rule, base, premises, target,
                                              claim):
    nodes, state = _state_after(*base)
    prem = [_premise(state, g, fd) for g, fd in premises]
    key = (str(canon(target[0])), target[1].describe())
    forged = claim(*[iv for _, iv in prem])
    # the arithmetic holds and narrows; only the hypothesis is false
    assert state.get(key, edengine.TOP).meet(forged) == forged \
        != state.get(key, edengine.TOP)
    with pytest.raises(Inconsistent, match="%s does not derive" % rule):
        replay_trace(nodes + [_node(rule, prem, (key, forged))])


def test_replay_accepts_genuine_ext_and_ce_nodes():
    # no catalog trace holds R-EXT or R-CE, so build one of each by hand
    nodes, state = _state_after(Sym(7), F4)
    prem = _premise(state, Sym(7), F4)
    ext = _node("R-EXT", [prem], (("S7", "F(2)"), BoundInterval(prem[1].lo,
                                                               INF)))
    assert replay_trace(nodes + [ext])[("S7", "F(2)")].lo == prem[1].lo
    nodes, state = _state_after(Cyc(3), Q)
    prem = _premise(state, Cyc(3), Q)
    lo, hi = prem[1].lo + 1, prem[1].hi + 1
    ce = _node("R-CE", [prem], (("C6", "Q"), BoundInterval(lo, hi)))
    assert replay_trace(nodes + [ce])[("C6", "Q")] == BoundInterval(lo, hi)


def test_replay_rejects_non_canonical_keys():
    _, nodes = bound(Sym(3), Q)
    key, iv = nodes[0].conclusion
    assert key == ("S3", "Q")
    for alias in (("D3", "Q"), ("S3", " Q"), ("S3", "F_2"),
                  ("S3", "Q(zeta_1)")):
        bad = TraceNode(nodes[0].rule, nodes[0].citation, nodes[0].premises,
                        (alias, iv))
        with pytest.raises(Inconsistent, match="not canonical"):
            replay_trace([bad] + nodes[1:])


def test_elemab_closure_is_logarithmic_in_rank():
    # E(p,r) splits in halves, so its closure does not grow with r
    for r in (4, 100, 10 ** 4):
        eng = edengine._Engine()
        eng.query(ElemAb(2, r), Q)
        assert len(eng.intervals) <= 4 * math.ceil(math.log2(r)), r


def test_halves_narrow_elemab_in_its_characteristic():
    # E(2,2)/F(4) is 1 (Prop 5.10), so the halves give E(2,4)/F(4) <= 2,
    # where E(2,3) x C2 gave 3
    assert bound(ElemAb(2, 4), F4)[0] == BoundInterval(2, 2)


def test_replay_rejects_the_one_c_p_at_a_time_view():
    # E(3,4) = E(3,3) x C3 is true, but the engine's R-PROD view of E(3,4)
    # is its halves; for r <= 3 the two views have the same keys
    _, below = bound(ElemAb(3, 3), Q)
    _, nodes = bound(ElemAb(3, 4), Q)
    key = ("E(3,4)", "Q")
    trace = below + [n for n in nodes
                     if n.conclusion[0] == key and not n.premises]
    state = replay_trace(trace)

    def prod(*factors):
        keys = [(f, "Q") for f in factors]
        hi = sum(state[k].hi for k in keys)
        return TraceNode("R-PROD", RuleCatalog.citation("R-PROD"),
                         tuple((k, state[k]) for k in keys),
                         (key, state[key].narrowed(None, hi)))
    assert replay_trace(trace + [prod("E(3,2)", "E(3,2)")])[key].hi == 4
    with pytest.raises(Inconsistent, match="does not derive"):
        replay_trace(trace + [prod("E(3,3)", "C3")])


def _catalog_cases():
    """(query, expected interval JSON) for every non-hang bound query of
    the benchmark catalog."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "catalog.json"
    workloads = json.loads(path.read_text())["workloads"]
    return sorted({(e["query"], json.dumps(e["expect"], sort_keys=True))
                   for w in ("bound-structural", "bound-pgl2")
                   for stratum, entries in workloads[w].items()
                   if stratum != "hang" for e in entries})


def _document(g, fd, iv, nodes):
    """What ``edim bound`` prints for g over fd, whose bound is iv, nodes."""
    out = {"schema": cli.SCHEMA, "command": "bound",
           **trace_json(g, fd, iv, nodes)}
    return json.dumps(out, sort_keys=True) + "\n"


def _bound_and_replay(cases):
    """Bound each query, check its interval and replay its trace; returns
    the sha256 of their ``edim bound`` documents, in the order given."""
    digest = hashlib.sha256()
    for query, expect in cases:
        group, field = query.split("/", 1)
        g, fd = parse_group(group), parse_field(field)
        iv, nodes = bound(g, fd)
        assert iv.json() == json.loads(expect), query
        assert not nodes or iv in replay_trace(nodes).values(), query
        digest.update(_document(g, fd, iv, nodes).encode())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _catalog_sweep():
    """One bound, replay and document of every non-hang catalog query,
    shared by the two tests that read them."""
    cases = _catalog_cases()
    assert len({q for q, _ in cases}) == len(cases) > 2700
    return _bound_and_replay(cases)


def test_catalog_traces_replay():
    # every non-hang bound query of the benchmark catalog reaches its
    # reference interval, and replay re-derives every node of its trace
    _catalog_sweep()


# sha256 of the ``edim bound`` stdout of the 2,738 non-hang catalog queries,
# sorted by query string, each document as printed (ending in a newline),
# concatenated with no separator
CATALOG_DIGEST = \
    "b4518515522a8866d422a55e0d3a4661e332f12316387fc938e0b5158d14e318"


def test_catalog_bound_documents_keep_their_digest(capsys):
    """No catalog answer or trace changes by a byte.  A change that
    regenerates perfbench/catalog.json, or changes a bound document on
    purpose, updates CATALOG_DIGEST and says why."""
    for query, _ in _catalog_cases()[::250]:  # _document is what it prints
        group, field = query.split("/", 1)
        g, fd = parse_group(group), parse_field(field)
        assert cli.run(["bound", "--group", group, "--field", field]) == 0
        assert capsys.readouterr().out == _document(g, fd, *bound(g, fd))
    assert _catalog_sweep() == CATALOG_DIGEST


# --- R-REP from field arithmetic --------------------------------------------

def _companion_search(ctx, n):
    """The search R-REP's D_n fact replaces: some c in F_q, p not dividing
    n, whose companion matrix of X^2 - cX + 1 has projective order n."""
    k = pgl2._kernel(ctx)
    return n % ctx.p != 0 and any(k.order((0, k.neg[1], 1, c), n) == n
                                  for c in range(ctx.q))


def _independent_powers(ctx, r):
    """The unipotent model of E(p,r) in PGL_2(F_q) that R-EPR-CHARP's
    [1, 1] stands for: 1, g, ..., g^(r-1) for g the generator of F_q over
    F_p pass the F_p-independence scan of ``elemab_representation``."""
    gen = ctx.gen() if ctx.k > 1 else ctx.one
    try:
        pgl2.elemab_representation(ctx, [gen ** i for i in range(r)])
    except DependentAlphas:
        return False
    return True


def _rep_gives_two(a, fd):
    # the first narrowing is the permutation degree, 2 for E(2,1)
    return (None, 2) in list(edengine._leaf_rep(a, fd))[1:]


def test_rep_facts_match_the_matrix_searches():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        fd = finite_field_from_q(q)
        ctx = fq_context(fd.p, fd.k)
        for n in range(3, 41):
            assert _rep_gives_two(Dih(n), fd) \
                == _companion_search(ctx, n), (q, n)
        # R-REP has no E(p,r) model: Prop 5.10 decides exactly its cases
        for p in sorted({2, 3, 5, 7, fd.p}):
            for r in range(1, 7):
                a = ElemAb(p, r)
                assert list(edengine._leaf_rep(a, fd)) == [(None, degree(a))]
                assert (list(edengine._leaf_epr_charp(a, fd)) == [(1, 1)]) \
                    == (p == fd.p and _independent_powers(ctx, r)), (q, p, r)


def test_huge_groups_are_sized_without_factorials(monkeypatch):
    def refuse(n):
        raise AssertionError("the engine computed %d!" % n)

    monkeypatch.setattr(math, "factorial", refuse)
    cases = [("D100003/Q", (2, 100000)), ("S100000/Q", (50000, 99997)),
             ("S1700/Q", (850, 1697)), ("C1000003/Q", (2, 1000003)),
             ("C1999966/Q", (3, 999984))]
    _bound_and_replay([(query, json.dumps({"lo": lo, "hi": hi}))
                       for query, (lo, hi) in cases])


def test_bound_builds_no_representation(monkeypatch):
    def refuse(*args):
        raise AssertionError("the engine built a matrix representation")

    monkeypatch.setattr(pgl2, "dn_representation", refuse)
    monkeypatch.setattr(pgl2, "elemab_representation", refuse)
    cases = [(query, expect) for query, expect in _catalog_cases()
             if query.split("/", 1)[1].startswith("F(")
             and any(a in query for a in ("D", "E("))]
    assert len(cases) > 300
    _bound_and_replay(cases)


def test_trace_json_schema():
    iv, nodes = bound(ElemAb(3, 2), F4)
    doc = trace_json(ElemAb(3, 2), F4, iv, nodes)
    s = json.dumps(doc, sort_keys=True)
    doc2 = json.loads(s)
    assert doc2["query"]["group"] == "E(3,2)"
    assert doc2["interval"] == {"lo": 2, "hi": 2}
    for node in doc2["nodes"]:
        assert set(node) >= {"rule", "citation", "premises", "conclusion"}
        assert RuleCatalog.citation(node["rule"]) == node["citation"]


def test_catalog_is_complete_and_frozen():
    ids = [r.id for r in RuleCatalog.RULES]
    assert len(ids) == len(set(ids)) == 18
    for rid in ids:
        cit = RuleCatalog.citation(rid)
        assert cit and any(w in cit for w in ("Lemma", "Thm", "Prop", "§"))
        assert '"' in cit  # every citation carries a verbatim anchor


def test_unknown_fields_block_rules():
    # a custom descriptor with no facts cannot certify D_9 = 1
    fd = Custom(characteristic=0)
    iv, _ = bound(Dih(9), fd)
    assert iv.lo >= 1 and iv.hi >= 2


# --- propagation order and oracle calls -------------------------------------

_NAIVE_GROUPS = ([Sym(n) for n in (3, 4, 5, 6, 7)]
                 + [Alt(n) for n in (4, 5, 6)]
                 + [Dih(n) for n in (4, 5, 6, 9)]
                 + [Cyc(n) for n in (4, 6, 12, 30)]
                 + [ElemAb(2, 2), ElemAb(2, 3), ElemAb(3, 2)]
                 + [Product(Sym(3), Cyc(4)), Product(Alt(5), Cyc(3)),
                    Product(Dih(5), Cyc(3))])
_NAIVE_FIELDS = [Q, F2, FiniteField(3, 1), F4, Cyclotomic(3),
                 Custom(characteristic=0)]
# the fields' names in the paper's notation, kept as the test ids
_NAIVE_IDS = ["Q", "F_2", "F_3", "F_4", "Q(zeta_3)", "custom{char=0}"]


@pytest.mark.parametrize("fd", _NAIVE_FIELDS, ids=_NAIVE_IDS)
def test_worklist_matches_naive_fixpoint(fd):
    # oracle for the worklist: re-apply every stored edge, in creation
    # order, until a whole sweep narrows nothing
    for g in _NAIVE_GROUPS:
        eng = edengine._Engine()
        key = eng.query(g, fd)
        before = None
        while before != eng.intervals:
            before = dict(eng.intervals)
            for edge in eng.edges:
                eng.apply(edge)
        assert eng.intervals[key] == bound(g, fd)[0], (g, fd)
        worklist = edengine._Engine()
        worklist.query(g, fd)
        worklist.run()
        assert worklist.intervals == eng.intervals, (g, fd)


def test_oracles_called_once_per_key(monkeypatch):
    calls = []

    def counted(fn, name, key):
        def wrapper(*args):
            calls.append((name,) + key(*args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(edengine, "embedding_certificate",
                        counted(edengine.embedding_certificate, "cert",
                                lambda h, g: (str(h), str(g))))
    seen = set()
    for g, fd in [(Cyc(6006), Q), (ElemAb(5, 2), FiniteField(11, 1)),
                  (Product(Product(Sym(3), Cyc(4)), Cyc(5)), Q),
                  (Product(Alt(5), Cyc(3)), Cyclotomic(3))]:
        calls.clear()
        first = bound(g, fd)
        assert len(calls) == len(set(calls)), (g, fd, calls)
        seen |= {c[0] for c in calls}
        # the same query again: every hypothesis comes from the memo
        calls.clear()
        assert bound(g, fd) == first and calls == [], (g, fd, calls)
    assert seen == {"cert"}
    # one group over many fields: a certificate asks nothing of the field,
    # so each (h, g) pair is certified once across all of them
    for g in (Dih(13), Product(Product(Dih(5), Cyc(6)), Alt(4))):
        calls.clear()
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            bound(g, finite_field_from_q(q))
        assert calls and len(calls) == len(set(calls)), (g, calls)


def _closure_queries(g, fd):
    """Every canonical query the engine reaches from (g, fd)."""
    todo, seen = [(canon(g), fd)], set()
    while todo:
        q = todo.pop()
        if q not in seen:
            seen.add(q)
            todo += [(canon(e), k) for _, sources, target, _ in
                     edengine.edges_of(*q) for e, k in sources + (target,)]
    return seen


def test_edges_of_repeats_no_edge():
    # a product with a repeated prime factor splits it off once: C2^32/Q
    # linked 1,147 edges with one R-CE-SPLIT pair per equal factor
    c2s = Cyc(2)
    for _ in range(31):
        c2s = Product(c2s, Cyc(2))
    eng = edengine._Engine()
    eng.query(c2s, Q)
    assert len(eng.edges) <= 155
    grid = [Product(Product(Cyc(2), Cyc(2)), Cyc(2)),
            Product(Product(Cyc(3), Cyc(3)), Cyc(2)),
            Product(Sym(3), Sym(3)), Product(Cyc(6), Cyc(6)),
            Product(Product(Dih(5), Dih(5)), Cyc(2)),
            Product(Product(ElemAb(2, 2), ElemAb(2, 2)), Cyc(2)),
            Product(Product(Alt(4), Alt(4)), Cyc(3)), c2s]
    for g in grid:
        for fd in (Q, Cyclotomic(3), F2, F4, finite_field_from_q(7)):
            for q in _closure_queries(g, fd):
                edges = edengine.edges_of(*q)
                assert len(set(edges)) == len(edges), (str(q[0]), fd)


def test_bound_builds_no_pgl2_kernel(monkeypatch):
    # R-PGL-OBS reads element orders and one fact of Dickson's list: no
    # bound over a field the exhaustive search covers builds or reads its
    # tables
    def refuse(*args):
        raise AssertionError("the engine built a PGL_2 kernel")

    monkeypatch.setattr(pgl2, "_Kernel", refuse)
    monkeypatch.setattr(pgl2, "_kernel", refuse)
    groups = [Cyc(n) for n in (2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 15, 60)]
    groups += [Dih(n) for n in (2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 30)]
    groups += [ElemAb(2, 2), ElemAb(2, 3), ElemAb(3, 2), ElemAb(5, 2),
               ElemAb(7, 2), ElemAb(2, 6), Product(Cyc(3), Cyc(5)),
               Product(Dih(5), Cyc(2)), Sym(4), Alt(5)]
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        fd = finite_field_from_q(q)
        assert fd.q <= edengine.PGL_OBS_Q_CAP
        for g in groups:
            iv, nodes = bound(g, fd)
            assert iv in replay_trace(nodes).values(), (g, q)


def _pgl_obs_from_the_lcm_set(a, fd):
    """R-PGL-OBS read off the product's whole lcm set, as the oracle for
    the one search over its factors' orders."""
    try:
        orders = element_orders(a)
    except TooLarge:
        orders = ()
    l = fd.char()
    out = []
    if l > 0 and any(o % l == 0 and o != l for o in orders):
        out.append((2, None))
    if any((l == 0 or o % l != 0) and contains_real_zeta(fd, o) is NO
           for o in orders):
        out.append((2, None))
    if isinstance(fd, FiniteField) and fd.q <= edengine.PGL_OBS_Q_CAP \
            and isinstance(a, ElemAb) and a.r >= 2 and a.p not in (2, l):
        out.append((2, None))
    return out


def test_pgl_obs_one_search_matches_the_lcm_set():
    atoms = [Cyc(n) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 21)]
    atoms += [Dih(n) for n in (3, 4, 5, 6, 7)] + [Sym(3), Sym(4), Sym(5),
                                                  Alt(4), Alt(5),
                                                  ElemAb(2, 2), ElemAb(3, 2)]
    exprs = atoms + [Product(a, b) for i, a in enumerate(atoms)
                     for b in atoms[i:]]
    rng = random.Random(33)
    exprs += [Product(*rng.choices(atoms, k=rng.randint(3, 5)))
              for _ in range(300)]
    exprs += [Product(Cyc(4), Cyc(3), Cyc(5)), Product(Sym(4), Dih(5), Cyc(7)),
              Product(Cyc(3), Cyc(3), Cyc(3)), Product(Cyc(2), Cyc(3), Cyc(7))]
    fields = [Q, Cyclotomic(3), Cyclotomic(5), Cyclotomic(12), Custom(0), F2,
              F4]
    fields += [finite_field_from_q(q) for q in (3, 5, 7, 9, 11, 25, 41)]
    # Custom fields with yes and no sets, in characteristics 0, 2, 3 and 5:
    # over these a No is a multiple of a real_zeta_no member
    fields += [Custom(0, real_zeta_no={12}),
               Custom(0, zeta_yes={4, 8}, real_zeta_yes={7, 8},
                      real_zeta_no={10, 21}),
               Custom(0, real_zeta_no={5, 7, 9}),
               Custom(2, fp_dim=INF), Custom(2, fp_dim=3, real_zeta_no={5, 9}),
               Custom(3, fp_dim=INF, real_zeta_no={7, 10}),
               Custom(3, fp_dim=1, zeta_yes={5}, real_zeta_yes={5},
                      real_zeta_no={7, 8}),
               Custom(5, fp_dim=2, real_zeta_yes={3, 7},
                      real_zeta_no={9, 14})]
    seen = {"factor": 0, "lcm only": 0, "none": 0}
    for e in exprs:
        for fd in fields:
            want = _pgl_obs_from_the_lcm_set(e, fd)
            assert list(edengine._leaf_pgl_obs(e, fd)) == want, (str(e), fd)
            if isinstance(e, Product):
                alone = [_pgl_obs_from_the_lcm_set(f, fd) for f in e.factors]
                seen["factor" if any(alone) else
                     "lcm only" if want else "none"] += 1
    assert min(seen.values()) > 0, seen  # e.g. C4 x C3 over Q: order 12
    # a factor whose divisors raise TooLarge leaves no element-order fact,
    # though C5's order alone would decide over Q
    huge = Cyc(1000003 * 1000033)
    for e in (huge, Product(Cyc(5), huge), Product(huge, Sym(4), Cyc(7))):
        for fd in (Q, finite_field_from_q(41)):
            assert list(edengine._leaf_pgl_obs(e, fd)) == [] \
                == _pgl_obs_from_the_lcm_set(e, fd), (str(e), fd)


def test_bound_reads_no_product_element_orders(monkeypatch):
    # R-PGL-OBS searches its factors' order sets and never builds a
    # product's lcm set, which grows as the product of their sizes: no
    # catalog query and no large product of the budget table asks
    # element_orders for a product
    real = edengine.element_orders

    def atoms_only(e):
        assert not isinstance(e, Product), "built the lcm set of %s" % e
        return real(e)

    monkeypatch.setattr(edengine, "element_orders", atoms_only)
    rows = [(argv[argv.index("--group") + 1], argv[argv.index("--field") + 1])
            for argv in PRODUCT_ROWS]
    for group, field in [q.split("/", 1) for q, _ in _catalog_cases()] + rows:
        bound(parse_group(group), parse_field(field))
    # how many of the two element-order facts fire on each row, as
    # _pgl_obs_from_the_lcm_set gives them on every row whose lcm set it can
    # build (all but C2x...xC131 and A40^32, where no lcm meets a No)
    assert [len(list(edengine._leaf_pgl_obs(canon(parse_group(g)),
                                            parse_field(f))))
            for g, f in rows] == [1, 2, 1, 1, 2, 0, 0, 0, 2, 0, 2, 0, 0, 0]


# --- the engine memo ----------------------------------------------------------

_MEMOS = (edengine._key, atom_aliases, edengine.leaf_facts,
          edengine.edges_of, edengine._leaf_phase, edengine._group_links,
          groups.element_orders, groups._partition_orders)


def test_each_test_starts_on_an_empty_engine_memo():
    memos = [fn for mod in (edengine, groups) for fn in vars(mod).values()
             if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__]
    assert set(memos) == set(_MEMOS)
    assert all(fn.cache_info().currsize == 0 for fn in memos)


def _narrowed_from_top(e, fd):
    """The leaf step the memoized phase replaces, as its oracle: a fresh
    engine narrows the new query from TOP by each leaf fact in turn."""
    eng = edengine._Engine()
    key = edengine._key(e, fd)
    eng.intervals[key] = edengine.TOP
    for rule, lo, hi in edengine.leaf_facts(e, fd):
        eng.narrow(key, rule, lo, hi)
    return eng.intervals[key], tuple(eng.trace)


def test_leaf_phase_matches_narrowing_from_top():
    atoms = ([f(n) for f in (Sym, Alt) for n in range(1, 10)]
             + [Dih(n) for n in range(1, 17)] + [Cyc(n) for n in range(1, 31)]
             + [ElemAb(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3, 4)])
    exprs = dict.fromkeys(canon(e) for e in atoms + [
        Product(Sym(3), Cyc(4)), Product(Alt(5), Cyc(3)),
        Product(Dih(5), Cyc(2)), Product(ElemAb(2, 2), Cyc(2)),
        Product(Cyc(3), Cyc(3)), Product(Product(Sym(4), Cyc(5)), Dih(7))])
    fields = ([Q] + [Cyclotomic(m) for m in (3, 4, 5, 7, 8, 12)]
              + [finite_field_from_q(q) for q in (2, 3, 4, 5, 7, 8, 9, 16,
                                                  25, 27, 29, 64)]
              + [Custom(characteristic=0),
                 Custom(characteristic=0, zeta_yes=frozenset({5}),
                        real_zeta_yes=frozenset({5})),
                 Custom(characteristic=2, fp_dim=INF),
                 Custom(characteristic=3, fp_dim=1)])
    for fd in fields:
        for e in exprs:
            assert edengine._leaf_phase(e, fd) == _narrowed_from_top(e, fd), \
                (str(e), fd.describe())


def _bound_documents(queries, cold):
    """The ``edim bound`` stdout of each query, in order; cold clears the
    engine memo before every query, warm keeps it across them."""
    out = {}
    for query in queries:
        if cold:
            for fn in _MEMOS:
                fn.cache_clear()
        group, field = query.split("/", 1)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.run(["bound", "--group", group, "--field", field]) == 0
        out[query] = buf.getvalue()
    return out


def test_bound_documents_do_not_depend_on_the_memo():
    # every 12th non-hang catalog query: Q, Qzeta(m), F(q) and custom fields
    queries = [q for q, _ in _catalog_cases()][::12]
    kinds = {q.split("/", 1)[1].split("(")[0].split("{")[0] for q in queries}
    assert kinds == {"Q", "Qzeta", "F", "custom"}
    cold = _bound_documents(queries, cold=True)
    assert _bound_documents(queries, cold=False) == cold
    assert _bound_documents(queries[::-1], cold=False) == cold


# run in a fresh interpreter: churn=1 first builds 6,500 records and drops
# the list (the interned ones stay in their tables), so the records the
# queries build sit at other addresses, with other identity hashes
_PRINT_DOCUMENTS = """
import sys
from edim import cli, edengine, fielddesc, groups
if sys.argv[1] == "1":
    junk = [groups.Cyc(n) for n in range(10 ** 6, 10 ** 6 + 3000)]
    junk += [fielddesc.Cyclotomic(m) for m in range(10 ** 6, 10 ** 6 + 500)]
    junk += [edengine.BoundInterval(i, i + 1) for i in range(3000)]
    del junk
for query in sys.stdin.read().splitlines():
    group, field = query.split("/", 1)
    assert cli.run(["bound", "--group", group, "--field", field]) == 0
"""


def test_bound_documents_do_not_depend_on_record_addresses():
    # identity hashes follow memory addresses, and str hashes the process's
    # hash seed, so two interpreters must print the same documents
    queries = "\n".join(q for q, _ in _catalog_cases()[::12])
    src = Path(__file__).resolve().parents[1] / "src"
    runs = [subprocess.Popen(
        [sys.executable, "-c", _PRINT_DOCUMENTS, churn],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=churn))
        for churn in ("0", "1")]
    outs = [run.communicate(queries.encode(), timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outs[0] == outs[1] and outs[0].count(b"\n") == 229


def _warm_up(*queries):
    """A bound of each query, then of every query its trace names, so the
    memo holds their facts and edges before replay reads them."""
    for g, fd in queries:
        _, nodes = bound(g, fd)
        for (grp, fld), _ in dict.fromkeys(n.conclusion for n in nodes):
            bound(parse_group(grp), parse_field(fld))


@pytest.mark.parametrize("rule,g,fd", _LEAF_QUERIES,
                         ids=[r for r, _, _ in _LEAF_QUERIES])
def test_forged_leaf_conclusions_fail_on_a_warm_memo(rule, g, fd):
    _warm_up(*[(h, k) for _, h, k in _LEAF_QUERIES])
    test_replay_rejects_forged_leaf_conclusions(rule, g, fd)


@pytest.mark.parametrize("rule,base,premises,target,claim", _FALSE_EDGES,
                         ids=_FALSE_EDGE_IDS)
def test_false_edge_hypotheses_fail_on_a_warm_memo(rule, base, premises,
                                                   target, claim):
    _warm_up(base, target, *premises)
    test_replay_rejects_false_edge_hypotheses(rule, base, premises, target,
                                              claim)


def test_replay_rejects_stale_premises():
    _, nodes = bound(Product(Sym(5), Cyc(3)), Q)
    i = next(i for i, n in enumerate(nodes) if n.premises)
    (pk, piv), *rest = nodes[i].premises
    assert piv != edengine.TOP
    bad = TraceNode(nodes[i].rule, nodes[i].citation,
                    ((pk, edengine.TOP), *rest), nodes[i].conclusion)
    with pytest.raises(Inconsistent, match="stale premise"):
        replay_trace(nodes[:i] + [bad])
    replay_trace(nodes)


def test_forged_nodes_fail_on_a_warm_memo():
    _warm_up((Sym(5), Q), (Cyc(7), Q), (Alt(5), Q), (Dih(5), Q),
             (Dih(5), F2), (Product(Sym(5), Cyc(3)), Q))
    test_replay_rechecks_subgroup_certificates()
    test_replay_rejects_stale_premises()
    test_replay_rejects_non_canonical_keys()
    test_trace_replay_and_tamper_detection()
