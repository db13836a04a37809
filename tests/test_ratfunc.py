import itertools
import random
from fractions import Fraction

import pytest

from edim import ratfunc
from edim.crossratio import CRSymbol, cr_define, cr_rewrite, generator_symbol
from edim.errors import PoleAtPoint, UnboundVariable
from edim.exactfield import fq_context
from edim.ratfunc import (QQ, MultiPoly, RatFn, _gcd_prs, _normalize,
                          poly_divexact, poly_gcd, render)
from edim.tschirnhaus import reduce_general


def _vars():
    return ("t4", "t5", "t6")


def _v(name):
    return RatFn.var(QQ, _vars(), name)


def test_render_matches_cli_grammar():
    t4, t5 = _v("t4"), _v("t5")
    assert render(t4 / t5) == "t4 * t5^-1"
    assert render(-t4 + RatFn.const(QQ, _vars(), Fraction(1))) == "-t4 + 1"
    assert render(t4 * t4 + t5) == "t4^2 + t5"


def test_field_axioms_randomized():
    rng = random.Random(7)
    vars = _vars()

    def rand_ratfn():
        num = MultiPoly.zero(QQ, vars)
        for _ in range(rng.randrange(1, 4)):
            mono = MultiPoly.const(QQ, vars, Fraction(rng.randrange(-3, 4)))
            for i in range(rng.randrange(0, 3)):
                mono = mono * MultiPoly.var(QQ, vars, rng.choice(vars))
            num = num + mono
        return RatFn.from_poly(num)

    for _ in range(40):
        a, b, c = rand_ratfn(), rand_ratfn(), rand_ratfn()
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        if not b.is_zero():
            assert (a / b) * b == a


def test_gcd_reduction_is_automatic():
    t4, t5 = _v("t4"), _v("t5")
    one = RatFn.const(QQ, _vars(), Fraction(1))
    # (t4^2 - 1)/(t4 - 1) reduces to t4 + 1
    assert (t4 * t4 - one) / (t4 - one) == t4 + one


def test_poly_gcd_randomized_products():
    rng = random.Random(5)
    vars = ("t4", "t5")

    def rand_poly():
        p = MultiPoly.zero(QQ, vars)
        for _ in range(rng.randrange(1, 3)):
            mono = MultiPoly.const(QQ, vars, Fraction(rng.randrange(1, 4)))
            for _ in range(rng.randrange(0, 2)):
                mono = mono * MultiPoly.var(QQ, vars, rng.choice(vars))
            p = p + mono
        return p

    for _ in range(25):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        if h.is_zero() or f.is_zero() or g.is_zero():
            continue
        d = poly_gcd(f * h, g * h)
        # h divides the gcd of f*h and g*h
        poly_divexact(d, poly_gcd(d, h))  # no exception
        q = poly_divexact(f * h, d)
        assert q * d == f * h


def test_evaluate_over_finite_field():
    ctx = fq_context(13, 1)
    t4, t5 = _v("t4"), _v("t5")
    f = (t4 + t5) / (t4 - t5)
    vals = {"t4": ctx.from_int(5), "t5": ctx.from_int(2)}
    assert f.evaluate(vals) == ctx.from_int(7) / ctx.from_int(3)
    with pytest.raises(PoleAtPoint):
        f.evaluate({"t4": ctx.from_int(2), "t5": ctx.from_int(2)})


def test_evaluate_requires_bindings():
    t4 = _v("t4")
    ctx = fq_context(5, 1)
    with pytest.raises(UnboundVariable):
        (t4 + t4).evaluate({"t5": ctx.one})


def test_compose_pair_cross_multiplication():
    t4, t5 = _v("t4"), _v("t5")
    f = t4 / (t4 + t5)
    bindings = {"t4": t5 * t5, "t5": t4}
    n, d = f.compose_pair(bindings)
    composed = f.substitute(bindings)
    assert RatFn(n, d) == composed


def test_substitute_detects_indeterminate():
    from edim.errors import IndeterminateForm
    t4, t5 = _v("t4"), _v("t5")
    f = t4 / (t4 - t5)
    with pytest.raises(IndeterminateForm):
        f.substitute({"t4": t5, "t5": t5})


def _rand_poly(rng, dom, vars, use, coeffs, terms, deg):
    """Up to `terms` random terms of degree <= deg in the variables `use`."""
    p = MultiPoly.zero(dom, vars)
    for _ in range(terms):
        mono = MultiPoly.const(dom, vars, rng.choice(coeffs))
        for _ in range(rng.randrange(0, deg + 1)):
            mono = mono * MultiPoly.var(dom, vars, rng.choice(use))
        p = p + mono
    return p


def test_poly_gcd_fast_paths_match_prs_oracle(monkeypatch):
    # poly_gcd decides monomial and unit-content pairs by structure; the
    # primitive PRS is the oracle.  f = a h and g = b h, where a may carry a
    # linear factor in t1, a variable that g never has.
    vars = ("t1", "t2", "t3")
    fired = {"monomial": 0, "unit_content": 0, "common_factor": 0}
    unit_content = ratfunc._unit_content

    def counted(f, g):
        found = unit_content(f, g)
        fired["unit_content"] += found
        return found

    monkeypatch.setattr(ratfunc, "_unit_content", counted)
    domains = [QQ, fq_context(2, 1), fq_context(3, 1), fq_context(5, 1),
               fq_context(2, 2)]
    for seed, dom in enumerate(domains):
        rng = random.Random(100 + seed)
        coeffs = ([Fraction(c) for c in range(-3, 4) if c] if dom is QQ
                  else [c for c in dom.elements() if not c.is_zero()])
        for _ in range(40):
            h, a, b = (_rand_poly(rng, dom, vars, use, coeffs,
                                  rng.randrange(1, 4), rng.randrange(3))
                       for use in (vars[1:], vars, vars[1:]))
            if rng.random() < 0.5:
                t1 = MultiPoly.var(dom, vars, "t1")
                a = a * (t1 * rng.choice(coeffs)
                         + _rand_poly(rng, dom, vars, vars[1:], coeffs, 2, 1))
            f, g = a * h, b * h
            if f.is_zero() or g.is_zero():
                continue
            monomial = len(f.terms) == 1 or len(g.terms) == 1
            fired["monomial"] += monomial
            for x, y in ((f, g), (g, f)):
                d = poly_gcd(x, y)
                assert d == _normalize(_gcd_prs(x, y)), (x, y)
            fired["common_factor"] += not (monomial or d.is_constant())
    assert min(fired.values()) >= 20, fired


def test_poly_gcd_near_misses_are_not_coprime():
    vars = ("t1", "t2", "t3")
    t1, t2, t3 = (MultiPoly.var(QQ, vars, v) for v in vars)
    cases = [
        # t1 is private to f but its coefficients t2 and t2^2 are not units
        (t1 * t2 + t2 * t2, t2, t2),
        (t1 * t2 + t2 * t3, t2 + t2 * t3, t2),
        ((t2 + t3) * (t1 + t2), t2 + t3, t2 + t3),
        # a monomial against a sum: x^min over the terms of both; t2 does
        # not divide t2 + t3, so that gcd is 1
        (t1 * t2, t2 + t3, MultiPoly.const(QQ, vars, 1)),
        (t1 * t2 * t2, t2 * t2 * t3 + t1 * t2, t2),
        (t1 * t2, t2 * t3 + t2 * t2, t2),
    ]
    for f, g, want in cases:
        for x, y in ((f, g), (g, f)):
            assert poly_gcd(x, y) == want, (x, y)
            assert _normalize(_gcd_prs(x, y)) == want, (x, y)


def test_pow_matches_repeated_product():
    vars = ("t4", "t5")
    p = MultiPoly.var(QQ, vars, "t4") + MultiPoly.const(QQ, vars, 2)
    r = RatFn(p, MultiPoly.var(QQ, vars, "t5"))
    one = RatFn.const(QQ, vars, 1)
    acc_p, acc_r = MultiPoly.const(QQ, vars, 1), one
    for n in range(0, 10):
        assert p ** n == acc_p and r ** n == acc_r, n
        assert r ** -n == one / acc_r, n
        acc_p, acc_r = acc_p * p, acc_r * r
    assert p ** 1 is p and r ** 1 is r


# -- coefficient types over Q: an int when integral, else a Fraction ----------

def _assert_exact_rationals(polys):
    for p in polys:
        assert p.domain is QQ
        for c in p.terms.values():
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator != 1), (c, p)


def _parts(r):
    return r.num, r.den


def test_integral_coefficients_are_ints():
    rng = random.Random(11)
    for n in (4, 5, 6, 7):
        syms = [CRSymbol(n, idx)
                for idx in itertools.permutations(range(1, n + 1), 4)]
        for sym in syms:
            _assert_exact_rationals(_parts(cr_define(sym)))
        if n < 5:
            continue
        bindings = {"t%d" % i: cr_define(generator_symbol(n, i))
                    for i in range(4, n + 1)}
        for sym in rng.sample(syms, 40):
            _assert_exact_rationals(cr_rewrite(sym).compose_pair(bindings))
    for n in range(2, 8):
        h, record = reduce_general(n, 0)
        for c in h.coeffs:
            for base, _ in c.factors:
                _assert_exact_rationals(_parts(base))
        for step in record.steps:
            if step.lam is not None:
                _assert_exact_rationals(_parts(step.lam))


def test_quotients_of_coefficients_are_exact():
    vars = ("x", "y")
    x, y = (MultiPoly.var(QQ, vars, v) for v in vars)
    r = RatFn(x, 2 * y)
    assert r.num.terms == {(1, 0): Fraction(1, 2)}
    assert type(r.num.terms[(1, 0)]) is Fraction
    assert r.den.terms == {(0, 1): 1} and type(r.den.terms[(0, 1)]) is int
    # a divisor whose leading coefficient is not 1
    q = poly_divexact(x + 1, 2 * x + 2)
    assert q.terms == {(0, 0): Fraction(1, 2)}
    assert type(q.terms[(0, 0)]) is Fraction
    q = poly_divexact(x * x - 1, 3 * x + 3)
    assert q.terms == {(1, 0): Fraction(1, 3), (0, 0): Fraction(-1, 3)}
    assert all(type(c) is Fraction for c in q.terms.values())
    # an integral quotient stays an int
    q = poly_divexact(6 * x + 4, 3 * x + 2)
    assert q.terms == {(0, 0): 2} and type(q.terms[(0, 0)]) is int
    assert type(RatFn(4 * x, 2 * x).constant_value()) is int


def test_evaluation_at_rational_points_is_exact():
    t4, t5 = _v("t4"), _v("t5")
    f = (t4 + t5) / (t4 - 2 * t5)
    got = f.evaluate({"t4": Fraction(1, 2), "t5": Fraction(1, 3)})
    assert got == Fraction(-5) and type(got) is int
    got = f.evaluate({"t4": Fraction(1, 2), "t5": Fraction(1, 5)})
    assert got == Fraction(7, 1) and type(got) is int
    got = (t4 / t5).evaluate({"t4": Fraction(2, 3), "t5": Fraction(5, 7)})
    assert got == Fraction(14, 15) and type(got) is Fraction
    # int points: a true quotient, never a float
    got = (t4 / t5).evaluate({"t4": 1, "t5": 2})
    assert got == Fraction(1, 2) and type(got) is Fraction
    half = RatFn.const(QQ, _vars(), Fraction(1, 2))
    got = (half * t4).evaluate({"t4": Fraction(3, 5)})
    assert got == Fraction(3, 10) and type(got) is Fraction
