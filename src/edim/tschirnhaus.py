"""The reduction pipeline for the general degree-n polynomial: depress (kill
X^{n-1}), rescale roots (tie the last two coefficients), and the wild
characteristic-2/3 paths, with a replayable record and a finite-field
specialization oracle.

``Shift(lam)`` turns f(X) into f(X + lam), ``ScaleRoots(lam)`` into
lam^{-n} f(lam X), and ``InvertRoot`` reverses the coefficients
(re-monicized): on roots, r - lam, r / lam and 1/r.

The forms are built reduced, with no polynomial product and no gcd.  For
f = sum_i t_i X^{n-i} (t_0 = 1) and lam = c t^alpha / t^beta, the
coefficient of X^{n-j} in f(X + lam) is, in closed form,

    sum_{i<=j} C(n-i, j-i) c^{j-i} t_i t^{alpha (j-i) + beta i} / t^{beta j},

over the common monomial of the two sides cancelled: a divisor of a
monomial is a monomial.  After the shift by -t_1/n, a_n is t_n plus terms
free of t_n, so irreducible (degree 1 in t_n over the unit 1), and a_{n-1}
is free of t_n: a_n / a_{n-1} is reduced.

``verify_specialization`` applies the record to f at a point of F_q, step
by step, and compares the result with h: f's monic coefficients, low degree
first, go through a Taylor shift for ``Shift``, a product of powers for
``ScaleRoots`` (X^i's coefficient times lam^{i-n}) and, for ``InvertRoot``,
the reversed list over the constant term.  A zero constant term there is a
root sent to infinity, a pole, even where a later step would bring it back.
It runs on F_q's integer codes, with no factoring, through a plan built
once per (f, h, record) and characteristic, as F_p keeps its codes in every
extension; a call is one term sum, two products of powers and one kernel
call per step, all of them the field's whole-sum kernels.

``general_poly`` and ``reduce_general`` are memoized per (n, char), so a
session shares one derivation of each.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import sub

from .errors import (PoleAtAssignment, PoleAtPoint, UnboundVariable,
                     Unsupported)
from .exactfield import FqContext, common_field, fq_context
from .ratfunc import QQ, MultiPoly, RatFn, _coded
from .record import Record


class PowerProduct:
    """A coefficient in factored form, prod base_i ^ exp_i over reduced
    RatFns: b_i = a_i (a_n/a_{n-1})^{-i} is never expanded.  The factors,
    one per base, are a multiset to equality and the hash, and only
    ``render`` orders them, by their bases' renderings.  The zero test and
    the hash are taken once."""

    __slots__ = ("factors", "_zero", "_hash")

    def __init__(self, factors):
        combined = {}
        for base, exp in factors:
            if exp != 0:
                combined[base] = combined.get(base, 0) + exp
        self.factors = tuple(t for t in combined.items() if t[1])
        self._zero = any(b.is_zero() and e > 0 for b, e in self.factors)
        # every zero product is equal to every other, whatever its factors
        self._hash = hash(0) if self._zero else hash(frozenset(self.factors))

    @classmethod
    def of(cls, ratfn):
        return cls([(ratfn, 1)])

    def is_zero(self):
        return self._zero

    def is_constant(self):
        return self._zero or all(b.is_constant() for b, _ in self.factors)

    def __eq__(self, other):
        if not isinstance(other, PowerProduct):
            return NotImplemented
        return self._zero and other._zero or self._hash == other._hash and \
            frozenset(self.factors) == frozenset(other.factors)

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        return PowerProduct(self.factors + other.factors)

    def __pow__(self, e):
        return PowerProduct(tuple((b, x * e) for b, x in self.factors))

    def render(self):
        if self._zero:
            return "0"
        parts = []
        for s, exp in sorted((repr(b), e) for b, e in self.factors):
            if " " in s or "*" in s:
                s = "(%s)" % s
            parts.append(s if exp == 1 else "%s^%d" % (s, exp))
        return " * ".join(parts) or "1"

    def __repr__(self):
        return self.render()


class Shift(Record):
    __slots__ = ("lam",)


class ScaleRoots(Record):
    __slots__ = ("lam",)


class InvertRoot(Record):
    __slots__ = ()
    lam = None


class TransformRecord(Record, interned=True):
    __slots__ = ("steps",)


class GeneralPoly(Record, interned=True):
    """Monic X^n + c_1 X^{n-1} + ... + c_n with PowerProduct coefficients in
    t_1..t_n; coeffs[j-1] is the coefficient of X^{n-j}."""

    __slots__ = ("n", "char", "coeffs")

    def coefficient(self, j):
        return self.coeffs[j - 1]


@lru_cache(maxsize=None)
def general_poly(n, char):
    coeffs = tuple(PowerProduct.of(_ratio(n, char, 1, i, 0))
                   for i in range(1, n + 1))
    return GeneralPoly(n, char, coeffs)


def parameter_count(gp):
    """Number of distinct non-constant coefficient entries."""
    return len({c for c in gp.coeffs if not c.is_constant()})


# ---------------------------------------------------------------------------
# the three elementary transformations
# ---------------------------------------------------------------------------

def _ratio(n, char, c, up, down):
    """c t_up / t_down over the ring of general_poly(n, char), t_0 = 1."""
    dom = QQ if char == 0 else fq_context(char, 1)
    vs = tuple("t%d" % m for m in range(1, n + 1))

    def mono(i, x):
        return MultiPoly(dom, vs, {tuple(int(m == i) for m in
                                         range(1, n + 1)): x})

    return RatFn(mono(up, dom.coerce(c)), mono(down, dom.one), reduce=False)


def apply_shift(gp, lam):
    """f(X) -> f(X + lam) for the general gp and lam = c t^alpha / t^beta:
    X^{n-j} gets sum_{i<=j} C(n-i, j-i) c^{j-i} t_i t^{alpha (j-i) + beta i}
    over t^{beta j}, summed in integers over c's denominator (an F_p c is
    its code), less the monomial the two share: then it is reduced."""
    n, dom, vs = gp.n, lam.domain, lam.vars
    (alpha, c), = lam.num.terms.items()
    (beta, _), = lam.den.terms.items()
    if gp != general_poly(n, gp.char):
        raise ValueError("apply_shift takes the general polynomial")
    u, w = (c.code, 1) if isinstance(dom, FqContext) else \
        (c.numerator, c.denominator)
    out = []
    for j in range(1, n + 1):
        terms = {}
        for i in range(j + 1):
            e = tuple(a * (j - i) + b * i + (m == i)
                      for m, (a, b) in enumerate(zip(alpha, beta), 1))
            terms[e] = terms.get(e, 0) + \
                math.comb(n - i, j - i) * u ** (j - i) * w ** i
        num = MultiPoly(dom, vs, {e: dom.coerce(Fraction(x, w ** j))
                                  for e, x in terms.items()})
        bj = tuple(b * j for b in beta)
        low = tuple(map(min, bj, *num.terms)) if num.terms else bj
        if any(low):
            num = MultiPoly(dom, vs, {tuple(map(sub, e, low)): x
                                      for e, x in num.terms.items()})
        den = MultiPoly(dom, vs, {tuple(map(sub, bj, low)): dom.one})
        out.append(PowerProduct.of(RatFn(num, den, reduce=False)))
    return GeneralPoly(n, gp.char, tuple(out))


def apply_scale(gp, lam):
    """f(X) -> lam^{-n} f(lam X) for lam = a_n / a_{n-1}: coefficient j gets
    lam^{-j}, and the constant term a_n lam^{-n} is written a_{n-1} lam^{1-n},
    so the last two are equal as products."""
    n = gp.n
    lampp = PowerProduct.of(lam)
    out = [gp.coefficient(j) * lampp ** (-j) for j in range(1, n)]
    out.append(gp.coefficient(n - 1) * lampp ** (1 - n))
    return GeneralPoly(n, gp.char, tuple(out))


def apply_invert(gp):
    """f(X) -> X^n f(1/X) / f(0): coefficients reversed and re-monicized."""
    n = gp.n
    inv = gp.coefficient(n) ** (-1)
    rev = [gp.coefficient(n - j) * inv for j in range(1, n)]
    rev.append(PowerProduct.of(_ratio(n, gp.char, 1, 0, 0)) * inv)
    return GeneralPoly(n, gp.char, tuple(rev))


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def depress(gp):
    """Kill X^{n-1} of the general gp by -t_1/n; char must not divide n."""
    lam = _ratio(gp.n, gp.char, Fraction(-1, gp.n), 1, 0)
    out = apply_shift(gp, lam)
    assert out.coefficient(1).is_zero()
    return out, TransformRecord((Shift(lam),))


def rescale(gp):
    """Scale roots by lam = a_n/a_{n-1} so the last two coefficients agree,
    for gp general or depressed: lam is then reduced (module docstring)."""
    n = gp.n
    (an, _), = gp.coefficient(n).factors
    (an1, _), = gp.coefficient(n - 1).factors
    lam = RatFn(an.num, an1.num, reduce=False)
    return apply_scale(gp, lam), TransformRecord((ScaleRoots(lam),))


def reduce_char3_cubic():
    """X^3 + t_1 X^2 + t_2 X + t_3 in characteristic 3, to X^3 + cX + c: the
    shift by t_2/t_1 kills the X coefficient, InvertRoot makes it X^2's, and
    the scale by mu = h_3/h_2 = (1/w)/(t_1/w) = 1/t_1 ties the last two."""
    gp = general_poly(3, 3)
    lam = _ratio(3, 3, 1, 2, 1)
    g = apply_shift(gp, lam)
    assert g.coefficient(2).is_zero()
    h = apply_invert(g)
    mu = _ratio(3, 3, 1, 0, 1)
    return apply_scale(h, mu), \
        TransformRecord((Shift(lam), InvertRoot(), ScaleRoots(mu)))


@lru_cache(maxsize=None)
def reduce_general(n, char):
    """Dispatch of the reduction pipeline; (reduced poly, record)."""
    if n < 2:
        raise Unsupported("degree must be >= 2")
    gp = general_poly(n, char)
    if char > 0 and n % char == 0:
        if (n, char) == (2, 2):
            return rescale(gp)
        if (n, char) == (3, 3):
            return reduce_char3_cubic()
        raise Unsupported("char %d divides degree %d: no reduction is modeled"
                          % (char, n))
    g, rec1 = depress(gp)
    if n == 2:
        return g, rec1
    h, rec2 = rescale(g)
    return h, TransformRecord(rec1.steps + rec2.steps)


# ---------------------------------------------------------------------------
# specialization oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _plan(f, h, record, p):
    """What ``verify_specialization`` reads of (f, h, record) in
    characteristic p, for every field of it: the field the bases are coded
    in (F_p, or the extension their coefficients lie in); the (index,
    name) of each variable that occurs; the term lists to sum, by
    ``ratfunc._coded``: an empty one, then the den and num of base k at
    2k - 1 and 2k, both empty if p divides a coefficient's denominator (a
    pole at every point); the values as products of those sums: 0, then
    num / den of each base; the coefficients of f, then of h, as ((value
    index, exponent), ...), 0 as value 0; for each step, its value index
    (None for InvertRoot) and the products that ``power_product`` takes over
    the n + 1 coefficients, low degree first, and for ScaleRoots lam after
    them (None for Shift, whose kernel is ``taylor_shift``)."""
    index, n = {}, f.n
    coeffs = tuple(((0, 1),) if c.is_zero() else tuple(
        (index.setdefault(b, len(index) + 1), e) for b, e in c.factors)
        for gp in (f, h) for c in gp.coeffs)
    scale = tuple(((i, 1), (n + 1, i - n)) for i in range(n)) + ((),)
    invert = tuple(((n - i, 1), (0, -1)) for i in range(n)) + ((),)
    steps = tuple((None, invert) if s.lam is None else
                  (index.setdefault(s.lam, len(index) + 1),
                   scale if isinstance(s, ScaleRoots) else None)
                  for s in record.steps)
    field = fq_context(p, 1)  # F_p keeps its codes in every extension
    for b in index:
        if isinstance(b.domain, FqContext):
            field = common_field(field, b.domain)
    sums = [()]
    for b in index:
        try:
            sums += _coded(b.den, field), _coded(b.num, field)
        except PoleAtPoint:
            sums += (), ()
    values = (((0, 1),), *(((2 * k, 1), (2 * k - 1, -1))
                           for k in index.values()))
    occ = {(i, b.vars[i]) for b in index for i in b.occurring()}
    return field, occ, tuple(sums), values, coeffs, steps


def verify_specialization(f, h, record, assignment, ctx):
    """Whether the record carries the roots of f onto those of h at a point
    of F_q: f's coefficients there, run through the record's steps on ctx's
    codes (module docstring), against h's."""
    field, occ, sums, values, coeffs, steps = _plan(f, h, record, ctx.p)
    if common_field(ctx, common_field(field, ctx)) is not ctx:
        raise ValueError("the coefficients do not lie in %r" % (ctx,))
    point = {name: ctx.coerce(v).code for name, v in assignment.items()}
    missing = {x for _, x in occ} - point.keys()
    if missing:
        raise UnboundVariable("unbound variables: %s" % sorted(missing))
    sums = ctx.term_sum(sums, {(i, 1): point[x] for i, x in occ})
    if not all(sums[1::2]):  # a base's denominator vanishes
        raise PoleAtAssignment("%s has a pole at the assignment" % (
            "coefficient" if any(not sums[2 * k - 1] for c in coeffs
                                 for k, _ in c) else "step parameter"))
    at = ctx.power_product(sums, values)  # at[0] is 0, the zero coefficient
    if at.count(0) > 1 and any(e < 0 and not at[k]
                               for c in coeffs for k, e in c):
        raise PoleAtAssignment("coefficient has a pole at the assignment")
    codes = ctx.power_product(at, coeffs)
    poly = codes[f.n - 1::-1] + [1]  # f, low degree first
    for k, products in steps:
        if products is None:
            poly = ctx.taylor_shift(poly, at[k])
        elif k is None:
            if not poly[0]:
                raise PoleAtAssignment("a root is sent to infinity: a pole")
            poly = ctx.power_product(poly, products)
        elif at[k]:
            poly = ctx.power_product(poly + [at[k]], products)
        else:
            raise PoleAtAssignment("scaling parameter vanishes at the "
                                   "assignment: a pole of its inverse")
    return poly == codes[:f.n - 1:-1] + [1]
