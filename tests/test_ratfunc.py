import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from edim import ratfunc
from edim.crossratio import CRSymbol, cr_define, cr_rewrite, generator_symbol
from edim.errors import PoleAtPoint, UnboundVariable
from edim.exactfield import FqElement, common_field, fq_context
from edim.ratfunc import (QQ, MultiPoly, RatFn, _gcd_prs, _normalize,
                          poly_divexact, poly_gcd, render)
from edim.tschirnhaus import reduce_general
from oracles import unit_content


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


def test_poly_gcd_fast_paths_match_prs_oracle():
    # poly_gcd decides a monomial argument by structure, and the oracles'
    # unit-content test finds coprime pairs; the primitive PRS is the
    # oracle.  f = a h and g = b h, where a may carry a linear factor in t1,
    # a variable that g never has.
    vars = ("t1", "t2", "t3")
    fired = {"monomial": 0, "unit_content": 0, "common_factor": 0}
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
                found = unit_content(x, y)
                fired["unit_content"] += found
                assert d.is_constant() or not found, (x, y)
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


# -- the kernels against their slow oracles ------------------------------------
#
# _mul_oracle and _evaluate_oracle are MultiPoly.__mul__ and polynomial
# evaluation as they were before the kernels ran on bare values: a generator
# per exponent sum, and an FqElement for every coefficient, power and partial
# sum.

def _mul_oracle(f, g):
    t = {}
    z = f.domain.zero
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            t[e] = t.get(e, z) + c1 * c2
    return MultiPoly(f.domain, f.vars, t)


def _coerce_oracle(coeff, sample):
    if sample is None or isinstance(coeff, type(sample)):
        return coeff
    if isinstance(coeff, (int, Fraction)):
        field = getattr(sample, "ctx", None)
        if field is None:  # a rational point
            return coeff
        try:
            return field.coerce(coeff)
        except ZeroDivisionError:
            raise PoleAtPoint("coefficient denominator vanishes")
    return coeff


def _evaluate_oracle(p, values):
    missing = {p.vars[i] for i in p.occurring()} - set(values)
    if missing:
        raise UnboundVariable("unbound variables: %s" % sorted(missing))
    some = next(iter(values.values()), None)
    acc = _coerce_oracle(p.domain.zero, some)
    cache = {}
    for e, c in p.terms.items():
        term = _coerce_oracle(c, some)
        for i, d in enumerate(e):
            if d:
                key = (i, d)
                if key not in cache:
                    cache[key] = values[p.vars[i]] ** d
                term = term * cache[key]
        acc = acc + term
    return acc


def _ratfn_oracle(r, values):
    d = _evaluate_oracle(r.den, values)
    if d == 0:
        raise PoleAtPoint("denominator vanishes at the given point")
    return ratfunc._div(_evaluate_oracle(r.num, values), d)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PoleAtPoint, UnboundVariable, ValueError) as exc:
        return type(exc)


def _assert_same_value(got, want, field):
    """The kernel's value is the oracle's.  Over F_q it lies in the field
    of the coefficients and the point; the oracle may leave a constant in
    F_p, which F_p's codes embed in every extension."""
    if isinstance(want, type) or field is None:
        assert got == want and type(got) is type(want), (got, want)
    else:
        assert isinstance(got, FqElement) and got.ctx is field, got
        assert (got.code, got.ctx.p) == (want.code, want.ctx.p), (got, want)


_QQ_COEFFS = [1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3),
              Fraction(5, 7)]


def _random_terms(rng, dom, vars, coeffs):
    """A polynomial built from a term dict, not from the kernels: up to
    five terms, or the constant 1, one of them with a zero exponent."""
    if rng.random() < 0.1:
        return MultiPoly(dom, vars, {(0,) * len(vars): dom.one})
    terms = {}
    for _ in range(rng.randrange(0, 6)):
        e = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in vars)
        terms[e] = rng.choice(coeffs)
    return MultiPoly(dom, vars, terms)


def _coeffs(dom):
    if dom is QQ:
        return _QQ_COEFFS
    return [c for c in dom.elements() if not c.is_zero()]


# (coefficient domain, field of the point) for the randomized comparisons:
# Q at rational points and at F_p and F_{p^2} points, where Fraction
# denominators can vanish (2 and 3 divide some above); F_p at F_p and at
# F_{p^2} points; F_{p^2} at F_{p^2} and at F_p points
_CASES = [(QQ, None), (QQ, (7, 1)), (QQ, (2, 1)), (QQ, (3, 2)),
          ((5, 1), (5, 1)), ((3, 1), (3, 2)), ((2, 1), (2, 2)),
          ((3, 2), (3, 2)), ((2, 2), (2, 1))]


def _field(spec):
    return QQ if spec is QQ else fq_context(*spec)


def test_mul_matches_oracle():
    vars = ("t1", "t2", "t3")
    for seed, (dspec, _) in enumerate(_CASES):
        rng = random.Random(300 + seed)
        dom = _field(dspec)
        coeffs = _coeffs(dom)
        for _ in range(60):
            f, g = (_random_terms(rng, dom, vars, coeffs) for _ in range(2))
            want = _mul_oracle(f, g)
            assert f * g == want == g * f, (f, g)


def test_evaluate_matches_oracle():
    vars = ("t1", "t2", "t3")
    seen = Counter()
    for seed, (dspec, pspec) in enumerate(_CASES):
        rng = random.Random(400 + seed)
        dom = _field(dspec)
        coeffs = _coeffs(dom)
        point = fq_context(*pspec) if pspec else None
        field = point if dom is QQ else common_field(dom, point)
        for _ in range(80):
            p, q = (_random_terms(rng, dom, vars, coeffs) for _ in range(2))
            names = vars if rng.random() < 0.9 else vars[:2]
            if point is None:
                values = {v: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                          for v in names}
            else:
                els = list(point.elements())
                values = {v: rng.choice(els) for v in names}
            # a polynomial is evaluated as a RatFn over 1, which over Q
            # gives an int where the value is integral
            r = RatFn.from_poly(p)
            want = _outcome(_ratfn_oracle, r, values)
            _assert_same_value(_outcome(r.evaluate, values), want, field)
            seen[want if isinstance(want, type) else "value"] += 1
            if q.is_zero() or names != vars:
                # the kernel reports a variable missing from either part
                # first; the oracle could meet a pole of q before it
                continue
            r = RatFn(p, q, reduce=False)
            want = _outcome(_ratfn_oracle, r, values)
            _assert_same_value(_outcome(r.evaluate, values), want, field)
            seen[want if isinstance(want, type) else "value"] += 1
    assert min(seen[k] for k in ("value", PoleAtPoint, UnboundVariable)) \
        >= 20, seen


def test_evaluate_edge_cases():
    vars = ("t1", "t2")
    f5, f9, f7 = fq_context(5, 1), fq_context(3, 2), fq_context(7, 1)
    t1, t2 = (MultiPoly.var(f5, vars, v) for v in vars)
    # F_p coefficients at an F_{p^2} point: the value lies in F_{p^2}
    f3 = fq_context(3, 1)
    p = MultiPoly(f3, vars, {(2, 0): f3.from_int(2), (0, 1): f3.one})
    x = {"t1": f9.gen(), "t2": f9.from_int(1)}
    got = RatFn.from_poly(p).evaluate(x)
    assert got.ctx is f9 and got == f9.gen() ** 2 * 2 + 1
    assert (got.code, got.ctx) == (_evaluate_oracle(p, x).code, f9)
    # a Fraction coefficient whose denominator vanishes mod p
    half = MultiPoly(QQ, vars, {(1, 0): Fraction(1, 2), (0, 0): 1})
    with pytest.raises(PoleAtPoint):
        RatFn.from_poly(half).evaluate({"t1": fq_context(2, 2).gen(),
                                        "t2": 0})
    with pytest.raises(PoleAtPoint):
        _evaluate_oracle(half, {"t1": fq_context(2, 2).gen(), "t2": 0})
    assert RatFn.from_poly(half).evaluate({"t1": f5.from_int(4)}) == \
        f5.from_int(3)
    # an unbound variable
    with pytest.raises(UnboundVariable):
        RatFn.from_poly(t1 * t2).evaluate({"t1": f5.one})
    with pytest.raises(UnboundVariable):
        RatFn(t1, t2).evaluate({"t1": f5.one})
    # a point that mixes characteristics, used or not
    mixed = {"t1": f5.from_int(2), "t2": f7.from_int(3)}
    for g in (RatFn.from_poly(t1 * t2 + 1), RatFn.from_poly(t1 + 1),
              RatFn(t1, t2 + 1)):
        with pytest.raises(ValueError, match="mixed field contexts"):
            g.evaluate(mixed)
    with pytest.raises(ValueError):
        _evaluate_oracle(t1 * t2 + 1, mixed)
    with pytest.raises(ValueError, match="mixed field contexts"):
        RatFn.from_poly(t1 + 1).evaluate({"t1": f9.gen()})
