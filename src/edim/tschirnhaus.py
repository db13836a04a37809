"""The polynomial-reduction pipeline for the general degree-n polynomial:
depress (kill X^{n-1}), rescale roots (tie the last two coefficients), and the
characteristic-2/3 special paths, with a replayable transformation record and
a finite-field specialization oracle.

Conventions.  ``Shift(lam)`` turns f(X) into f(X + lam) and maps each root r
to r - lam.  ``ScaleRoots(lam)`` turns f into lam^{-n} f(lam X) and maps r to
r / lam.  ``InvertRoot`` reverses the coefficients (re-monicized) and maps r
to 1/r.  Each step is thus a Mobius map on roots, r -> (a r + b)/(c r + d),
with matrix (1, -lam; 0, 1), (1, 0; 0, lam) and (0, 1; 1, 0) respectively,
and a record composes into one matrix.

The oracle ``verify_specialization`` checks one polynomial identity over the
base field F_q: for mu = (a, b; c, d) and f = sum f_i X^i,

    G(X) = sum_i f_i (dX - b)^i (-cX + a)^(n-i)
         = prod_i ((d + c r_i) X - (b + a r_i)) = const * prod_i (X - mu(r_i))

over the algebraic closure, where f = prod (X - r_i).  So h's roots are the
images of f's roots exactly when monic(G) = h, and deg G < n exactly when
some root is sent to infinity.  No factoring and no extension field: the
check runs on the integer codes of F_q (see ``exactfield.FqContext``), with
no arithmetic on field elements, through a plan built once per (f, h,
record, F_q) that codes the base RatFns' coefficients: a call codes the
point, then sums terms and forms products, the Mobius matrix and G.

``general_poly`` and ``reduce_general`` are memoized per (n, char): their
results are frozen records (tuples of PowerProducts over RatFns), so every
caller in a session shares one derivation.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import (CharDividesDegree, DegenerateTail, PoleAtAssignment,
                     PoleAtPoint, UnboundVariable, Unsupported)
from .exactfield import FqContext, common_field, fq_context
from .ratfunc import QQ, RatFn, _coded, _pow_table, _term_sum
from .record import Record


def tvars(n):
    return tuple("t%d" % i for i in range(1, n + 1))


def _domain(char):
    return QQ if char == 0 else fq_context(char, 1)


class PowerProduct:
    """A coefficient kept in factored form: prod base_i ^ exp_i over reduced
    RatFns.  Avoids expanding b_i = a_i (a_n/a_{n-1})^{-i}, which is huge for
    n near 7, while staying comparably canonical; ``verify_specialization``
    evaluates it at a point from the values of its bases."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors):
        combined = {}
        for base, exp in factors:
            if exp != 0:
                combined[base] = combined.get(base, 0) + exp
        self.factors = tuple(sorted(((b, e) for b, e in combined.items() if e),
                                    key=lambda t: (repr(t[0]), t[1])))
        # every zero product is equal to every other, whatever its factors
        self._hash = hash(0) if self.is_zero() else hash(self.factors)

    @classmethod
    def of(cls, ratfn):
        return cls([(ratfn, 1)])

    def is_zero(self):
        return any(b.is_zero() and e > 0 for b, e in self.factors)

    def is_constant(self):
        return self.is_zero() or all(b.is_constant() for b, e in self.factors)

    def __eq__(self, other):
        if not isinstance(other, PowerProduct):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        return PowerProduct(self.factors + other.factors)

    def __pow__(self, e):
        return PowerProduct(tuple((b, x * e) for b, x in self.factors))

    def expand(self):
        if not self.factors:
            raise ValueError("expanding the empty product needs a ring context")
        acc = None
        for base, exp in self.factors:
            v = base ** exp
            acc = v if acc is None else acc * v
        return acc

    def render(self):
        if self.is_zero():
            return "0"
        if not self.factors:
            return "1"
        parts = []
        for base, exp in self.factors:
            s = repr(base)
            if " " in s or "*" in s:
                s = "(%s)" % s
            parts.append(s if exp == 1 else "%s^%d" % (s, exp))
        return " * ".join(parts)

    def __repr__(self):
        return self.render()


class Shift(Record):
    __slots__ = ("lam",)

    def mobius(self, m, lv, ctx):
        a, b, c, d = m
        return ctx.sub(a, ctx.mul(lv, c)), ctx.sub(b, ctx.mul(lv, d)), c, d


class ScaleRoots(Record):
    __slots__ = ("lam",)

    def mobius(self, m, lv, ctx):
        a, b, c, d = m
        return a, b, ctx.mul(lv, c), ctx.mul(lv, d)


class InvertRoot(Record):
    __slots__ = ()
    lam = None

    def mobius(self, m, lv, ctx):
        a, b, c, d = m
        return c, d, a, b


class TransformRecord(Record):
    __slots__ = ("steps",)


class GeneralPoly(Record):
    """Monic X^n + c_1 X^{n-1} + ... + c_n with PowerProduct coefficients in
    t_1..t_n; coeffs[j-1] is the coefficient of X^{n-j}."""

    __slots__ = ("n", "char", "coeffs")

    def coefficient(self, j):
        return self.coeffs[j - 1]


@lru_cache(maxsize=None)
def general_poly(n, char):
    dom = _domain(char)
    vs = tvars(n)
    coeffs = tuple(PowerProduct.of(RatFn.var(dom, vs, "t%d" % i))
                   for i in range(1, n + 1))
    return GeneralPoly(n, char, coeffs)


def parameter_count(gp):
    """Number of distinct non-constant coefficient entries."""
    return len({c for c in gp.coeffs if not c.is_constant()})


# ---------------------------------------------------------------------------
# the three elementary transformations
# ---------------------------------------------------------------------------

def _one(gp):
    dom = _domain(gp.char)
    return RatFn.const(dom, tvars(gp.n), dom.one)


def apply_shift(gp, lam):
    """f(X) -> f(X + lam) over one denominator: for polynomial a_i (a_0 = 1)
    and lam = u/v, the coefficient of X^{n-j} is

        sum_{i<=j} C(n-i, j-i) a_i u^{j-i} v^i / v^j,

    one numerator polynomial reduced once against v^j."""
    n = gp.n
    a = [_one(gp)] + [c.expand() for c in gp.coeffs]
    if not all(x.den.is_constant() for x in a):
        raise ValueError("apply_shift needs polynomial coefficients")
    upow = _pow_table(lam.num, n)
    vpow = _pow_table(lam.den, n)
    out = []
    for j in range(1, n + 1):
        num = sum(a[i].num * upow[j - i] * vpow[i] * math.comb(n - i, j - i)
                  for i in range(j + 1))
        out.append(PowerProduct.of(RatFn(num, vpow[j])))
    return GeneralPoly(n, gp.char, tuple(out))


def apply_scale(gp, lam):
    """f(X) -> lam^{-n} f(lam X) for lam = a_n / a_{n-1}: coefficient j gets
    lam^{-j}, and the constant term a_n lam^{-n} = a_{n-1} lam^{1-n} is
    emitted in the X-coefficient's factored form, so their designed equality
    is visible structurally."""
    n = gp.n
    lampp = PowerProduct.of(lam)
    out = [gp.coefficient(j) * lampp ** (-j) for j in range(1, n)]
    out.append(gp.coefficient(n - 1) * lampp ** (1 - n))
    return GeneralPoly(n, gp.char, tuple(out))


def apply_invert(gp):
    """f(X) -> X^n f(1/X) / f(0): coefficients reversed and re-monicized."""
    n = gp.n
    const = gp.coefficient(n)
    if const.is_zero():
        raise DegenerateTail("constant term is the zero rational function")
    inv = const ** (-1)
    rev = [gp.coefficient(n - j) * inv for j in range(1, n)]
    rev.append(PowerProduct.of(_one(gp)) * inv)
    return GeneralPoly(n, gp.char, tuple(rev))


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def depress(gp):
    """Kill the X^{n-1} coefficient by shifting roots; char must not divide n."""
    n = gp.n
    if gp.char > 0 and n % gp.char == 0:
        raise CharDividesDegree("cannot depress degree %d in characteristic %d"
                                % (n, gp.char))
    a1 = gp.coefficient(1).expand() if not gp.coefficient(1).is_zero() else None
    if a1 is None:
        return gp, TransformRecord(())
    lam = -(a1 / n)
    out = apply_shift(gp, lam)
    assert out.coefficient(1).is_zero()
    return out, TransformRecord((Shift(lam),))


def rescale(gp):
    """Scale roots by lam = a_n/a_{n-1} so the last two coefficients agree."""
    n = gp.n
    an1 = gp.coefficient(n - 1)
    an = gp.coefficient(n)
    if an1.is_zero() or an.is_zero():
        raise DegenerateTail("rescale needs nonzero trailing coefficients")
    lam = an.expand() / an1.expand()
    if lam.is_constant() and lam.num == lam.den:
        return gp, TransformRecord(())
    out = apply_scale(gp, lam)
    assert out.coefficient(n - 1) == out.coefficient(n)
    return out, TransformRecord((ScaleRoots(lam),))


def reduce_char3_cubic():
    """X^3 + t_1 X^2 + t_2 X + t_3 in characteristic 3, to X^3 + cX + c."""
    gp = general_poly(3, 3)
    t1 = gp.coefficient(1).expand()
    t2 = gp.coefficient(2).expand()
    lam = t2 / t1
    g = apply_shift(gp, lam)
    assert g.coefficient(2).is_zero()
    h = apply_invert(g)
    b1 = h.coefficient(2)
    b2 = h.coefficient(3)
    mu = b2.expand() / b1.expand()
    out = apply_scale(h, mu)
    assert out.coefficient(2) == out.coefficient(3)
    assert out.coefficient(1).is_zero()
    record = TransformRecord((Shift(lam), InvertRoot(), ScaleRoots(mu)))
    return out, record


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
def _plan(f, h, record, ctx):
    """What ``verify_specialization`` reads of (f, h, record) over ctx, once
    per key (compared by value): the (index, name) of each variable that
    occurs; per distinct base RatFn, its denominator and numerator coded by
    ``ratfunc._coded``, or None if p divides a coefficient's denominator;
    f's and h's coefficients as ((base index, exponent), ...), None for the
    zero product; each step's base index, None for InvertRoot."""
    index, bases = {}, []
    coeffs = tuple(tuple(None if c.is_zero() else tuple(
        (index.setdefault(b, len(index)), e) for b, e in c.factors)
        for c in gp.coeffs) for gp in (f, h))
    steps = tuple(None if s.lam is None else
                  index.setdefault(s.lam, len(index)) for s in record.steps)
    dom = next(iter(index)).domain
    if isinstance(dom, FqContext) and \
            common_field(ctx, common_field(dom, ctx)) is not ctx:
        raise ValueError("the coefficients do not lie in %r" % (ctx,))
    for b in index:
        try:
            bases.append((_coded(b.den, ctx), _coded(b.num, ctx)))
        except PoleAtPoint:
            bases.append(None)
    occ = {(i, b.vars[i]) for b in index for i in b.occurring()}
    return occ, tuple(bases), coeffs, steps


def _mul(u, v, ctx):
    """The product of two code lists, low degree first."""
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v, i):
            out[j] = ctx.add(out[j], ctx.mul(x, y))
    return out


def verify_specialization(f, h, record, assignment, ctx):
    """Specialize f and h at t-values in F_q and check that the record
    carries the roots of f onto those of h, by the Mobius identity of the
    module docstring, on ctx's codes and ``_plan(f, h, record, ctx)``."""
    occ, bases, coeffs, steps = _plan(f, h, record, ctx)
    point = {name: ctx.coerce(v).code for name, v in assignment.items()}
    missing = {x for _, x in occ} - point.keys()
    if missing:
        raise UnboundVariable("unbound variables: %s" % sorted(missing))
    mul, inv = ctx.mul, ctx.inv
    powers = {(i, 1): point[x] for i, x in occ}
    at = []
    for terms in bases:
        den = terms and _term_sum(terms[0], ctx, powers)
        at.append(mul(_term_sum(terms[1], ctx, powers), inv(den))
                  if den else None)

    def product(c):
        acc = 0 if c is None else 1  # a zero product needs no factor
        for k, e in c or ():
            v = at[k]
            if v is None or not v and e < 0:
                raise PoleAtAssignment("coefficient has a pole at the "
                                       "assignment")
            acc = mul(acc, ctx.pow(v if e > 0 else inv(v), abs(e)))
        return acc

    f_codes, h_codes = [[product(c) for c in gp] for gp in coeffs]
    m = (1, 0, 0, 1)
    for step, k in zip(record.steps, steps):
        lv = None if k is None else at[k]
        if k is not None and lv is None:
            raise PoleAtAssignment("step parameter has a pole at the "
                                   "assignment")
        if isinstance(step, ScaleRoots) and not lv:
            raise PoleAtAssignment("scaling parameter vanishes at the "
                                   "assignment: a pole of its inverse")
        m = step.mobius(m, lv, ctx)
    a, b, c, d = m
    num = [ctx.neg(b), d] if d else [ctx.neg(b)]  # dX - b, low to high
    den = [a, ctx.neg(c)] if c else [a]  # -cX + a
    # Horner in num, starting from f_n = 1; f_{n-i} comes with den^i
    g, dp = [1], [1]
    for fi in f_codes:
        g, dp = _mul(g, num, ctx), _mul(dp, den, ctx)
        g += [0] * (len(dp) - len(g))
        for j, y in enumerate(dp):
            g[j] = ctx.add(g[j], ctx.mul(fi, y))
    if not g[-1]:  # g has n + 1 entries, as (c, d) != 0: deg G < n
        raise PoleAtAssignment("a root is sent to infinity: pole of the "
                               "composed Mobius map")
    inv = ctx.inv(g[-1])
    return [ctx.mul(x, inv) for x in g] == h_codes[::-1] + [1]
