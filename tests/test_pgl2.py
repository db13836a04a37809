import time
from itertools import product

import pytest

from edim import pgl2
from edim import edengine
from edim.edengine import PGL_OBS_Q_CAP, bound, canon
from edim.errors import TooLarge
from edim.exactfield import (FqElement, _digits, fq_context,
                             independent_mod_p, totient)
from edim.fielddesc import YES, finite_field_from_q
from edim.groups import Cyc, Dih, ElemAb, Sym
from edim.pgl2 import (Mat2, PGL2Element, dn_representation,
                       dp_representation, elemab_representation, order_census,
                       pgl2_embeds, pgl2_enumerate, pgl2_order,
                       trace_invariant)


def test_group_size():
    for q in (2, 3, 4, 5, 7):
        ctx = fq_context(*_pk(q))
        els = pgl2_enumerate(ctx)
        assert len(els) == q ** 3 - q
        assert len({e.encode() for e in els}) == len(els)


def _pk(q):
    fd = finite_field_from_q(q)
    return fd.p, fd.k


def test_group_laws_sampled():
    ctx = fq_context(3, 1)
    els = pgl2_enumerate(ctx)
    for a in els[:8]:
        assert (a * a.inverse()).is_identity()
        for b in els[:8]:
            assert ((a * b).inverse() == b.inverse() * a.inverse())


def test_order_census_known_values():
    # PGL2(F_2) is S_3: 1 identity, 3 involutions, 2 three-cycles
    census = order_census(fq_context(2, 1))
    assert {n: len(v) for n, v in census.items()} == {1: 1, 2: 3, 3: 2}
    # PGL2(F_3) is S_4
    census3 = order_census(fq_context(3, 1))
    assert {n: len(v) for n, v in census3.items()} == \
        {1: 1, 2: 9, 3: 8, 4: 6}


def test_pgl2_order_consistency():
    ctx = fq_context(2, 2)
    for e in pgl2_enumerate(ctx):
        n = pgl2_order(e)
        acc = e
        for _ in range(n - 1):
            acc = acc * e
        assert acc.is_identity()


def test_trace_invariant_is_class_function():
    ctx = fq_context(5, 1)
    els = pgl2_enumerate(ctx)
    for e in els[:10]:
        for h in els[:10]:
            conj = h * e * h.inverse()
            if pgl2_order(e) % ctx.p != 0:
                assert trace_invariant(conj) == trace_invariant(e)


def test_embeds_dihedral_known_cases():
    # D_5 embeds in PGL2(F_4) (A_5 contains D_5); not in PGL2(F_2) = S_3
    assert pgl2_embeds(Dih(5), fq_context(2, 2)) is not None
    assert pgl2_embeds(Dih(5), fq_context(2, 1)) is None
    # D_3 = S_3 embeds everywhere q >= 2
    for q in (2, 3, 4, 5):
        assert pgl2_embeds(Dih(3), fq_context(*_pk(q))) is not None


def test_embeds_cyclic_known_cases():
    # C_n embeds iff n | q-1, n | q+1, or n = p
    assert pgl2_embeds(Cyc(4), fq_context(3, 1)) is not None  # 4 | 3+1
    assert pgl2_embeds(Cyc(5), fq_context(2, 2)) is not None  # 5 | 4+1
    assert pgl2_embeds(Cyc(5), fq_context(3, 1)) is None
    assert pgl2_embeds(Cyc(3), fq_context(3, 1)) is not None  # n = p


def test_embeds_elemab():
    # Klein four embeds for odd q (diag/antidiag) and for q = 4 (unipotents),
    # but PGL2(F_2) = S_3 has no Klein subgroup
    for q in (3, 4, 5):
        assert pgl2_embeds(ElemAb(2, 2), fq_context(*_pk(q))) is not None
    assert pgl2_embeds(ElemAb(2, 2), fq_context(2, 1)) is None
    # E(p,r) in char p needs k >= r
    assert pgl2_embeds(ElemAb(2, 3), fq_context(2, 2)) is None
    assert pgl2_embeds(ElemAb(2, 3), fq_context(2, 3)) is not None


def test_embeds_witness_is_faithful():
    wit = pgl2_embeds(Dih(7), fq_context(2, 3))
    assert wit is not None
    seen = set()
    frontier = [x for x in wit.images]
    closure = set(e.encode() for e in frontier)
    work = list(frontier)
    while work:
        x = work.pop()
        for g in wit.images:
            y = x * g
            if y.encode() not in closure:
                closure.add(y.encode())
                work.append(y)
    assert len(closure) == 14


def test_unsupported_family_raises():
    with pytest.raises(TooLarge):
        pgl2_embeds(Sym(5), fq_context(2, 1))


def test_q_cap():
    with pytest.raises(TooLarge):
        pgl2_embeds(Cyc(3), fq_context(2, 6))  # q = 64 > 27


def test_elemab_order_cap_computes_no_power_of_the_rank():
    # the cap on p^r used to compute p^r: E(2,10^9) took 6 s to refuse
    start = time.perf_counter()
    for r in (7, 10 ** 9, 10 ** 50):
        with pytest.raises(TooLarge, match="order 64"):
            pgl2_embeds(ElemAb(2, r), fq_context(3, 3))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("p,k", [(29, 1), (2, 5), (1000003, 1)])
def test_element_queries_are_capped_like_the_census(p, k):
    # the kernel's tables exist only for q <= Q_CAP, so every entry point
    # that reads them refuses a larger field, as the census does
    ctx = fq_context(p, k)
    e = PGL2Element.of(Mat2(ctx, 1, 1, 0, 1))
    for query in (pgl2_order, trace_invariant):
        with pytest.raises(TooLarge, match="q = %d" % pgl2.Q_CAP):
            query(e)
    with pytest.raises(TooLarge, match="q = %d" % pgl2.Q_CAP):
        order_census(ctx)


def test_kernel_tables_are_the_field_operations():
    for q in _PRIME_POWERS:
        ctx = fq_context(*_pk(q))
        k = pgl2._Kernel(ctx)
        els = range(q)
        assert k.add == [[ctx.add(x, y) for y in els] for x in els]
        assert k.mul == [[ctx.mul(x, y) for y in els] for x in els]
        assert k.neg == [ctx.neg(x) for x in els]
        assert all(k.mul[x][k.inv[x]] == 1 for x in els[1:])


_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)


def _linear_order(m, cap):
    acc = m
    for d in range(1, cap + 1):
        if acc.is_identity():
            return d
        acc = acc * m
    return None


def test_constructive_representations():
    # D_n in GL_2(F_q): a rotation of exact order n exactly when p does
    # not divide n and zeta_n + zeta_n^{-1} lies in F_q
    from edim.errors import RealZetaAbsent
    for q in _PRIME_POWERS:
        fd = finite_field_from_q(q)
        ctx = fq_context(fd.p, fd.k)
        for n in range(3, 31):
            if n % fd.p == 0 or fd.contains_real_zeta(n) is not YES:
                with pytest.raises(RealZetaAbsent):
                    dn_representation(ctx, n)
                continue
            s, t = dn_representation(ctx, n)
            assert _linear_order(s, n) == n, (q, n)
            assert (t * t).is_identity() and not t.is_identity()
            assert t * s * t.inverse() == s.inverse()
    # D_p in its own odd characteristic
    s, t = dp_representation(fq_context(3, 1))
    assert s is not None and t is not None
    from edim.errors import EvenChar
    with pytest.raises(EvenChar):
        dp_representation(fq_context(2, 2))
    ctx2 = fq_context(2, 2)
    els = elemab_representation(ctx2, [ctx2.one, ctx2.gen()])
    assert len(els) == 2


def _span_verdicts(ctx, r_max):
    """{alpha code tuple: independent} for every tuple of length 1..r_max,
    by listing the F_p-span, as elemab_representation once did: r alphas are
    independent exactly when their span has p^r elements.  A tuple with a
    dependent prefix is dependent, so only independent prefixes are spanned
    further."""
    p, verdicts, spans = ctx.p, {}, {(): {0}}
    for r in range(1, r_max + 1):
        grown = {}
        for prefix in product(range(ctx.q), repeat=r - 1):
            span = spans.get(prefix)
            for a in range(ctx.q):
                if span is None:
                    verdicts[prefix + (a,)] = False
                    continue
                multiples = [ctx.mul(a, i) for i in range(p)]
                new = {ctx.add(x, m) for x in span for m in multiples}
                verdicts[prefix + (a,)] = independent = len(new) == p ** r
                if independent:
                    grown[prefix + (a,)] = new
        spans = grown
    return verdicts


def test_independence_by_elimination_matches_the_span():
    for q in _PRIME_POWERS:
        ctx = fq_context(*_pk(q))
        for alphas, want in _span_verdicts(ctx, 3).items():
            vectors = [dict(enumerate(_digits(a, ctx.p, ctx.k)))
                       for a in alphas]
            assert independent_mod_p(vectors, ctx.p) == want, (q, alphas)


def test_elemab_representation_refuses_exactly_the_dependent_alphas():
    from edim.errors import DependentAlphas
    for q in (4, 8, 9, 25, 27):
        ctx = fq_context(*_pk(q))
        for alphas, want in _span_verdicts(ctx, 2).items():
            els = [FqElement(ctx, a) for a in alphas]
            if want:
                assert len(elemab_representation(ctx, els)) == len(alphas)
            else:
                with pytest.raises(DependentAlphas):
                    elemab_representation(ctx, els)


def _companion_scan(ctx, n):
    """The least c in F_q whose companion matrix of X^2 - cX + 1 has linear
    order exactly n, by scanning every c, or None."""
    k = pgl2._kernel(ctx)
    return next((c for c in range(ctx.q)
                 if k.order((0, k.neg[1], 1, c), n, linear=True) == n), None)


def test_dn_rotation_matches_the_companion_scan():
    from edim.errors import RealZetaAbsent
    for q in _PRIME_POWERS:
        fd = finite_field_from_q(q)
        ctx = fq_context(fd.p, fd.k)
        for n in range(3, q + 2):
            if n % fd.p == 0:
                continue
            c = _companion_scan(ctx, n)
            if fd.contains_real_zeta(n) is not YES:
                assert c is None, (q, n)
                with pytest.raises(RealZetaAbsent):
                    dn_representation(ctx, n)
                continue
            s, t = dn_representation(ctx, n)
            assert s.d.encode() == t.b.encode() == c, (q, n)


def _mat2_census(ctx):
    """Order census recomputed by powering Mat2 over FqElement."""
    els = list(ctx.elements())
    reps = [Mat2(ctx, ctx.one, b, c, d)
            for b in els for c in els for d in els if d != b * c]
    reps += [Mat2(ctx, ctx.zero, ctx.one, c, d)
             for c in els[1:] for d in els]
    census = {}
    for m in reps:
        acc, n = m, 1
        while not acc.is_scalar():
            acc, n = acc * m, n + 1
        census.setdefault(n, []).append(PGL2Element(m).encode())
    return {n: sorted(codes) for n, codes in census.items()}


def test_order_census_matches_mat2_oracle():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        ctx = fq_context(*_pk(q))
        got = {n: [e.encode() for e in lst]
               for n, lst in order_census(ctx).items()}
        assert got == _mat2_census(ctx), q


def _closed_form_counts(q, p):
    """Elements of each order in PGL_2(F_q): the identity, q^2 - 1 unipotent
    ones of order p, and for each other d > 1, phi(d) q(q+1)/2 split
    semisimple ones if d | q - 1 plus phi(d) q(q-1)/2 non-split ones if
    d | q + 1."""
    counts = {1: 1, p: q * q - 1}  # p divides neither q - 1 nor q + 1
    for d in range(2, q + 2):
        split = q * (q + 1) // 2 if (q - 1) % d == 0 else 0
        nonsplit = q * (q - 1) // 2 if (q + 1) % d == 0 else 0
        if split or nonsplit:
            counts[d] = totient(d) * (split + nonsplit)
    return counts


def test_census_order_counts_match_the_closed_form():
    for q in _PRIME_POWERS:
        ctx = fq_context(*_pk(q))
        by_order, by_key = pgl2._Kernel(ctx).census
        assert {n: len(xs) for n, xs in by_order.items()} == \
            _closed_form_counts(q, ctx.p), q
        assert all(xs == sorted(xs) for xs in by_order.values()), q
        assert {n for n, _ in by_key.values()} | {1} == set(by_order), q


def _primes(limit):
    return [n for n in range(2, limit + 1)
            if all(n % d for d in range(2, n))]


def _closure(images, ctx):
    ident = PGL2Element.of(Mat2(ctx, 1, 0, 0, 1))
    seen, work = {ident}, [ident]
    while work:
        x = work.pop()
        for g in images:
            y = x * g
            if y not in seen:
                seen.add(y)
                work.append(y)
    return seen


def _assert_witness(h, wit, ctx):
    """The images satisfy h's relations in Mat2 arithmetic and generate
    exactly |h| elements."""
    imgs = wit.images

    def power(x, n):
        acc = PGL2Element.of(Mat2(ctx, 1, 0, 0, 1))
        for _ in range(n):
            acc = acc * x
        return acc

    if isinstance(h, Cyc):
        size = h.n
        assert all(power(x, h.n).is_identity() for x in imgs)
    elif isinstance(h, Dih):
        size, (s, t) = 2 * h.n, imgs
        assert power(s, h.n).is_identity() and (t * t).is_identity()
        assert t * s * t.inverse() == s.inverse()
    else:
        size = h.p ** h.r
        assert all(power(x, h.p).is_identity() for x in imgs)
        assert all(x * y == y * x for x in imgs for y in imgs)
    assert len(_closure(imgs, ctx)) == size, (h, ctx.q)


def test_non_embeddings_bound_ed_below_by_two_and_witnesses_are_faithful():
    # Lemma 5.3 end to end: whenever the search finds no embedding in
    # PGL_2(F_q), the engine proves ed >= 2 without it, over every field
    # where R-PGL-OBS's E(l,r) fact fires; and no R-PGL-OBS fact fires on
    # a group the search embeds
    assert PGL_OBS_Q_CAP == max(_PRIME_POWERS)
    groups = [Cyc(n) for n in range(1, 61)] + [Dih(n) for n in range(1, 31)]
    groups += [ElemAb(ell, r) for ell in _primes(64) for r in range(1, 7)
               if ell ** r <= 64]
    for q in _PRIME_POWERS:
        fd = finite_field_from_q(q)
        ctx = fq_context(fd.p, fd.k)
        for h in groups:
            wit = pgl2_embeds(h, ctx)
            if isinstance(h, ElemAb) and h.r >= 2 and h.p not in (2, fd.p):
                assert wit is None, (h, q)  # the E(l,r) fact's own cases
            if wit is None:
                assert bound(h, fd)[0].lo >= 2, (h, q)
            else:
                _assert_witness(h, wit, ctx)
                assert all(rule != "R-PGL-OBS" for rule, _, _ in
                           edengine.leaf_facts(canon(h), fd)), (h, q)


def test_class_keys_are_the_conjugation_orbits():
    # brute force in Mat2 arithmetic: the orbit of each non-identity class
    # under conjugation by all of PGL_2(F_q)
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = fq_context(*_pk(q))
        k = pgl2._kernel(ctx)
        els = [e for e in pgl2_enumerate(ctx) if not e.is_identity()]
        inverses = [g.inverse() for g in els]
        orbits, seen = [], set()
        for e in els:
            if e.encode() not in seen:
                orbit = {e.encode()} | {(g * e * gi).encode()
                                        for g, gi in zip(els, inverses)}
                orbits.append(orbit)
                seen |= orbit
        by_key = {}
        for e in els:
            by_key.setdefault(k.key(k.mat(e.encode())), set()).add(
                e.encode())
        assert sorted(map(sorted, by_key.values())) == \
            sorted(map(sorted, orbits)), q
        # each class's recorded order and least code
        by_order, classes = k.census
        assert set(classes) == set(by_key), q
        for key, (n, least) in classes.items():
            assert least == min(by_key[key]), (q, key)
            assert by_key[key] <= set(by_order[n]), (q, key)


def test_elemab_no_search_is_linear_in_candidates(monkeypatch):
    # E(7,2) is not in PGL_2(F_27): the search tries one first generator
    # per class of order 7 and filters its centralizer once, so it
    # multiplies a bounded number of times per order-7 candidate
    ctx, h = fq_context(3, 3), ElemAb(7, 2)
    order7 = pgl2._kernel(ctx).census[0][7]  # the census is built first
    calls, prod = [0], pgl2._Kernel.prod

    def counted(self, x, y):
        calls[0] += 1
        return prod(self, x, y)

    monkeypatch.setattr(pgl2._Kernel, "prod", counted)
    assert pgl2_embeds(h, ctx) is None
    assert 0 < calls[0] <= 8 * len(order7)
