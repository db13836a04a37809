import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from edim import edengine, pgl2
from edim.edengine import (INF, BoundInterval, RuleCatalog, Thm45Result,
                           Thm46Result, TooLarge, TraceNode,
                           a_lower_recurrence, atom_aliases, bound, canon,
                           center_order, check_thm45, check_thm46, dn_criterion,
                           expr_element_orders, l_core_trivial, product_views,
                           replay_trace, s_lower_recurrence, trace_json)
from edim.cli import parse_field, parse_group
from edim.errors import DependentAlphas, Inconsistent
from edim.exactfield import fq_context
from edim.fielddesc import (NO, UNKNOWN, YES, Custom, Cyclotomic, FiniteField,
                            RationalField, finite_field_from_q)
from edim.groups import (Alt, Cyc, Dih, ElemAb, Product, Sym, center,
                         element_orders, expr_order, l_core, porder, realize)

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
            assert element_orders(realize(b)) == element_orders(realize(a))


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
    got = expr_element_orders(e)
    want = {porder(x) for x in realize(e).elements()}
    assert got == want


# --- theorem predicate checks ----------------------------------------------

def test_check_thm45_cases():
    g = realize(Sym(5))
    sigma = next(x for x in g.elements() if porder(x) == 2)
    # sigma not central in S_5: rejected outright
    from edim.errors import NotCentral
    with pytest.raises(NotCentral):
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
    from edim.groups import pmul
    res = check_thm45(c4, pmul(gen, gen), Q)
    assert not res.applicable


def test_check_thm46_cases():
    assert check_thm46(Cyc(1), 2, Q).applicable          # C_2 over Q
    assert check_thm46(Cyc(1), 3, F4).applicable         # zeta_3 in F_4
    assert not check_thm46(Cyc(1), 3, Q).applicable      # zeta_3 not in Q
    # condition (iv): another prime dividing |Z(G')| whose zeta is present
    assert not check_thm46(Cyc(3), 2, Cyclotomic(3)).applicable
    assert check_thm46(Cyc(3), 2, Q).applicable
    # condition (i): char l with nontrivial O_l(G')
    assert not check_thm46(Cyc(4), 3, FiniteField(2, 1)).applicable


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


def test_consistency_under_field_extension():
    # enlarging K can only shrink ed; derived intervals over K and over the
    # extension must both contain their true values, so the extension's
    # lower bound can never exceed the base field's upper bound
    rng = random.Random(12)
    pool = ([Sym(n) for n in range(2, 10)] + [Alt(n) for n in range(3, 10)]
            + [Dih(n) for n in range(1, 12)] + [Cyc(n) for n in range(1, 16)]
            + [ElemAb(2, 2), ElemAb(2, 3), ElemAb(3, 2), ElemAb(5, 2)])
    for _ in range(100):
        g = rng.choice(pool)
        m = rng.choice([3, 4, 5, 7, 8, 9])
        base = rng.choice([Q, Cyclotomic(3), F2, FiniteField(3, 1)])
        try:
            bigger = base.extend_with_zeta(m)
        except Exception:
            continue
        iv1, _ = bound(g, base)
        iv2, _ = bound(g, bigger)
        assert iv2.lo <= iv1.hi, (g, base, m, iv1, iv2)


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
    key, concl = nodes[-1].conclusion
    bad = replace(nodes[-1],
                  conclusion=(key, BoundInterval(concl.lo, concl.hi + 1)))
    with pytest.raises(Inconsistent):
        replay_trace(nodes[:-1] + [bad])
    # tamper with a citation: replay must fail
    bad2 = replace(nodes[0], citation="Lemma 0.0")
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
        == sorted(r for r, _ in edengine.LEAF_RULES)


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


@pytest.mark.parametrize("rule,base,premises,target,claim", [
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
], ids=["R-PROD", "R-SUB", "R-EXT", "R-EXT-field", "R-CE", "R-CE-SPLIT"])
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
        bad = replace(nodes[0], conclusion=(alias, iv))
        with pytest.raises(Inconsistent, match="not canonical"):
            replay_trace([bad] + nodes[1:])


def _catalog_cases():
    """(query, expected interval JSON) for every non-hang bound query of
    the benchmark catalog."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "catalog.json"
    workloads = json.loads(path.read_text())["workloads"]
    return sorted({(e["query"], json.dumps(e["expect"], sort_keys=True))
                   for w in ("bound-structural", "bound-pgl2")
                   for stratum, entries in workloads[w].items()
                   if stratum != "hang" for e in entries})


def _bound_and_replay(cases):
    for query, expect in cases:
        group, field = query.split("/", 1)
        iv, nodes = bound(parse_group(group), parse_field(field))
        assert iv.json() == json.loads(expect), query
        assert not nodes or iv in replay_trace(nodes).values(), query


def test_catalog_traces_replay():
    # every non-hang bound query of the benchmark catalog reaches its
    # reference interval, and replay re-derives every node of its trace
    cases = _catalog_cases()
    assert len({q for q, _ in cases}) == len(cases) > 2700
    _bound_and_replay(cases)


# --- R-REP from field arithmetic --------------------------------------------

def _companion_search(ctx, n):
    """The search R-REP's D_n fact replaces: some c in F_q, p not dividing
    n, whose companion matrix of X^2 - cX + 1 has projective order n."""
    k = pgl2._kernel(ctx)
    return n % ctx.p != 0 and any(k.order((0, k.neg[1], 1, c), n) == n
                                  for c in range(ctx.q))


def _independent_powers(ctx, r):
    """The construction R-REP's E(p,r) fact replaces: 1, g, ..., g^(r-1)
    for g the generator of F_q over F_p pass the F_p-independence scan of
    ``elemab_representation``."""
    gen = ctx.gen() if ctx.k > 1 else ctx.one
    try:
        pgl2.elemab_representation(ctx, [gen ** i for i in range(r)])
    except DependentAlphas:
        return False
    return True


def _rep_gives_two(a, fd):
    # the first narrowing is the regular representation's |G|
    return (None, 2) in list(edengine._leaf_rep(a, fd))[1:]


def test_rep_facts_match_the_matrix_searches():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        fd = finite_field_from_q(q)
        ctx = fq_context(fd.p, fd.k)
        for n in range(3, 41):
            assert _rep_gives_two(Dih(n), fd) \
                == _companion_search(ctx, n), (q, n)
        for p in sorted({2, 3, 5, 7, fd.p}):
            for r in range(1, 7):
                assert _rep_gives_two(ElemAb(p, r), fd) \
                    == (p == fd.p and _independent_powers(ctx, r)), (q, p, r)


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


def test_prime_factors_match_a_sieve():
    # every prime d <= N marks itself on all its multiples
    N = 10 ** 4
    factors = [set() for _ in range(N + 1)]
    for d in range(2, N + 1):
        if not factors[d]:
            for m in range(d, N + 1, d):
                factors[m].add(d)
    for n in range(1, N + 1):
        assert edengine._prime_factors(n) == factors[n], n


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
    monkeypatch.setattr(edengine._pgl2, "pgl2_embeds",
                        counted(edengine._pgl2.pgl2_embeds, "pgl2",
                                lambda h, ctx: (str(h), ctx.p, ctx.k)))
    seen = set()
    for g, fd in [(Cyc(6006), Q), (ElemAb(5, 2), FiniteField(11, 1)),
                  (Product(Product(Sym(3), Cyc(4)), Cyc(5)), Q),
                  (Product(Alt(5), Cyc(3)), Cyclotomic(3))]:
        calls.clear()
        bound(g, fd)
        assert len(calls) == len(set(calls)), (g, fd, calls)
        seen |= {c[0] for c in calls}
    assert seen == {"cert", "pgl2"}
