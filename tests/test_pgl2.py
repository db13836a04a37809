import pytest

from edim.errors import TooLarge
from edim.exactfield import fq_context
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
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        ctx = fq_context(*_pk(q))
        got = {n: [e.encode() for e in lst]
               for n, lst in order_census(ctx).items()}
        assert got == _mat2_census(ctx), q


def _primes(limit):
    return [n for n in range(2, limit + 1)
            if all(n % d for d in range(2, n))]


def _dickson(h, p, k):
    """Does h embed in PGL_2(F_q), q = p^k (Dickson's subgroup list)."""
    q = p ** k
    if isinstance(h, Cyc):
        return h.n == 1 or (q - 1) % h.n == 0 or (q + 1) % h.n == 0 \
            or h.n == p
    if isinstance(h, Dih):
        n = h.n
        return n == 1 or (n == p and p != 2) or (p == 2 and n == 2 and k >= 2) \
            or (((q - 1) % n == 0 or (q + 1) % n == 0)
                and (p != 2 or n % 2 == 1))
    if h.p == p:
        return h.r <= k
    if h.p == 2:
        return h.r <= 2
    return h.r == 1 and ((q - 1) % h.p == 0 or (q + 1) % h.p == 0)


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


def test_verdicts_match_dickson_and_witnesses_are_faithful():
    groups = [Cyc(n) for n in range(1, 61)] + [Dih(n) for n in range(1, 31)]
    groups += [ElemAb(ell, r) for ell in _primes(64) for r in range(1, 7)
               if ell ** r <= 64]
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        p, k = _pk(q)
        ctx = fq_context(p, k)
        for h in groups:
            wit = pgl2_embeds(h, ctx)
            assert (wit is not None) == _dickson(h, p, k), (h, q)
            if wit is not None:
                _assert_witness(h, wit, ctx)
