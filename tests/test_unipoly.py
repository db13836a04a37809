import random

from edim import unipoly as U
from edim.exactfield import fq_context
from oracles import ExtField


def _deg(a):
    return len(a) - 1


def _mul_all(parts, ctx):
    acc = [ctx.one]
    for p, m in parts:
        for _ in range(m):
            acc = U.mul(acc, p, ctx.zero)
    return acc


def test_divmod_roundtrip():
    ctx = fq_context(5, 1)
    rng = random.Random(3)
    els = list(ctx.elements())
    for _ in range(200):
        a = [rng.choice(els) for _ in range(rng.randrange(1, 8))]
        b = [rng.choice(els) for _ in range(rng.randrange(1, 5))]
        a, b = U.trim(a), U.trim(b)
        if _deg(b) < 0:
            continue
        q, r = U.divmod_poly(a, b, ctx.zero)
        assert U.trim(U.add(U.mul(q, b, ctx.zero), r, ctx.zero)) == a
        assert _deg(r) < _deg(b)


def test_squarefree_parts_char_p_residual():
    # f = X^3 + X^2 = X^2 (X + 1) over F_2: the X^2 factor must come back
    # with multiplicity exactly 2, not 4
    ctx = fq_context(2, 1)
    f = [ctx.zero, ctx.zero, ctx.one, ctx.one]
    parts = U.squarefree_parts(f, ctx)
    assert sorted((_deg(p), m) for p, m in parts) == [(1, 1), (1, 2)]
    assert U.trim(_mul_all(parts, ctx)) == f


def test_squarefree_parts_f4_regression():
    # degree-5 input over F_4 whose residual is a square of an inseparable part
    ctx = fq_context(2, 2)
    x = ctx.gen()
    f = [ctx.zero, ctx.one, x, ctx.one, ctx.one, ctx.one]
    parts = U.squarefree_parts(f, ctx)
    assert sum(_deg(p) * m for p, m in parts) == 5
    assert U.trim(_mul_all(parts, ctx)) == U.monic(f)


def test_factor_monic_multiply_back_randomized():
    rng = random.Random(11)
    for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]:
        ctx = fq_context(p, k)
        els = list(ctx.elements())
        for _ in range(60):
            d = rng.randrange(1, 9)
            f = [rng.choice(els) for _ in range(d)] + [ctx.one]
            parts = U.factor_monic(f, ctx, rng=random.Random(rng.random()))
            assert U.trim(_mul_all(parts, ctx)) == f, (p, k, f)
            for g, _ in parts:
                assert g[-1] == ctx.one  # monic
                # irreducible: no roots when linearizable and deg matches ddf
                if _deg(g) > 1:
                    assert not U.roots_in_field(g, ctx)


def test_roots_in_field():
    ctx = fq_context(7, 1)
    # (X - 2)(X - 3) = X^2 - 5X + 6
    f = [ctx.from_int(6), ctx.from_int(-5), ctx.one]
    roots = sorted(r.encode() for r in U.roots_in_field(f, ctx))
    assert roots == [2, 3]
    # double root with multiplicity: (X - 1)^2
    g = [ctx.one, ctx.from_int(-2), ctx.one]
    assert [r.encode() for r in U.roots_in_field(g, ctx)] == [1, 1]


def test_extfield_arithmetic_and_gen_root():
    base = fq_context(3, 1)
    # X^2 + 1 is irreducible over F_3
    ext = ExtField(base, [base.one, base.zero, base.one])
    g = ext.gen()
    assert g * g == ext.from_int(-1)
    assert (g + ext.one) * (g - ext.one) == g * g - ext.one
    assert g.inverse() * g == ext.one
    els = {ext.element([a, b]).encode()
           for a in base.elements() for b in base.elements()}
    assert len(els) == 9


def test_extfield_from_base_is_embedding():
    base = fq_context(2, 2)
    els = list(base.elements())
    mod = next([c, b, base.one]
               for b in els for c in els
               if all(x * x + b * x + c != base.zero for x in els))
    ext = ExtField(base, mod)
    for a in els:
        for b in els:
            assert ext.from_base(a) + ext.from_base(b) == ext.from_base(a + b)
            assert ext.from_base(a) * ext.from_base(b) == ext.from_base(a * b)
