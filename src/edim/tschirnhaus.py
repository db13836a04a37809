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
some root is sent to infinity.  No factoring and no extension field.

``general_poly`` and ``reduce_general`` are memoized per (n, char): their
results are frozen records (tuples of PowerProducts over RatFns), so every
caller in a session shares one derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import unipoly
from .errors import (CharDividesDegree, DegenerateTail, PoleAtAssignment,
                     PoleAtPoint, Unsupported)
from .exactfield import fq_context
from .ratfunc import QQ, RatFn, _pow_table


def tvars(n):
    return tuple("t%d" % i for i in range(1, n + 1))


def _domain(char):
    return QQ if char == 0 else fq_context(char, 1)


class PowerProduct:
    """A coefficient kept in factored form: prod base_i ^ exp_i over reduced
    RatFns.  Avoids expanding b_i = a_i (a_n/a_{n-1})^{-i}, which is huge for
    n near 7, while staying exactly evaluable and comparably canonical."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        combined = {}
        for base, exp in factors:
            if exp != 0:
                combined[base] = combined.get(base, 0) + exp
        self.factors = tuple(sorted(((b, e) for b, e in combined.items() if e),
                                    key=lambda t: (repr(t[0]), t[1])))

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
        # every zero product is equal to every other, whatever its factors
        return hash(0) if self.is_zero() else hash(self.factors)

    def __mul__(self, other):
        return PowerProduct(self.factors + other.factors)

    def __pow__(self, e):
        return PowerProduct(tuple((b, x * e) for b, x in self.factors))

    def evaluate(self, values, memo=None):
        """The product at a point; ``memo`` (id(base) -> value) is shared by
        callers that evaluate many products over the same bases there."""
        acc = None
        sample = next(iter(values.values()))
        for base, exp in self.factors:
            v = _base_value(base, values, memo)
            if v.is_zero() and exp < 0:
                raise PoleAtPoint("negative power of a vanishing factor")
            v = v ** exp if exp >= 0 else (v.inverse()) ** (-exp)
            acc = v if acc is None else acc * v
        if acc is None:
            one = sample - sample + 1 if not hasattr(sample, "ctx") else \
                sample.ctx.one
            return one
        return acc

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


def _base_value(base, values, memo):
    if memo is None:
        return base.evaluate(values)
    v = memo.get(id(base))
    if v is None:
        v = memo[id(base)] = base.evaluate(values)
    return v


@dataclass(frozen=True)
class Shift:
    lam: RatFn

    def mobius(self, m, lam_value):
        a, b, c, d = m
        return a - lam_value * c, b - lam_value * d, c, d

    def kind(self):
        return "Shift"


@dataclass(frozen=True)
class ScaleRoots:
    lam: RatFn

    def mobius(self, m, lam_value):
        a, b, c, d = m
        return a, b, lam_value * c, lam_value * d

    def kind(self):
        return "ScaleRoots"


@dataclass(frozen=True)
class InvertRoot:
    lam = None

    def mobius(self, m, lam_value):
        a, b, c, d = m
        return c, d, a, b

    def kind(self):
        return "InvertRoot"


@dataclass(frozen=True)
class TransformRecord:
    steps: tuple


@dataclass(frozen=True)
class GeneralPoly:
    """Monic X^n + c_1 X^{n-1} + ... + c_n with PowerProduct coefficients in
    t_1..t_n; coeffs[j-1] is the coefficient of X^{n-j}."""

    n: int
    char: int
    coeffs: tuple

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
    distinct = []
    for c in gp.coeffs:
        if c.is_constant():
            continue
        if all(c != d for d in distinct):
            distinct.append(c)
    return len(distinct)


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


def apply_scale(gp, lam, tie_last=False):
    """f(X) -> lam^{-n} f(lam X): coefficient j gets lam^{-j}.

    With tie_last (used by rescale, where lam = a_n / a_{n-1}), the constant
    term is emitted in the same factored form as the X-coefficient so their
    designed equality is visible structurally.
    """
    n = gp.n
    lampp = PowerProduct.of(lam)
    out = [gp.coefficient(j) * lampp ** (-j) for j in range(1, n + 1)]
    if tie_last:
        out[n - 1] = gp.coefficient(n - 1) * lampp ** (1 - n)
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
    out = apply_scale(gp, lam, tie_last=True)
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
    out = apply_scale(h, mu, tie_last=True)
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

def _specialize_coeffs(gp, values, ctx, memo=None):
    out = []
    for c in gp.coeffs:
        if c.is_zero():
            out.append(ctx.zero)
            continue
        try:
            out.append(ctx.coerce(c.evaluate(values, memo)))
        except (PoleAtPoint, ZeroDivisionError):
            raise PoleAtAssignment("coefficient has a pole at the assignment")
    return out


def verify_specialization(f, h, record, assignment, ctx):
    """Specialize f and h at t-values in F_q and check that the recorded
    transformations carry the root multiset of f onto that of h, by the
    Mobius identity of the module docstring."""
    values = dict(assignment)
    memo = {}  # each distinct base RatFn is evaluated once at the point
    f_spec = _specialize_coeffs(f, values, ctx, memo)
    h_spec = _specialize_coeffs(h, values, ctx, memo)
    m = (ctx.one, ctx.zero, ctx.zero, ctx.one)
    for step in record.steps:
        lv = None
        if step.lam is not None:
            try:
                lv = ctx.coerce(_base_value(step.lam, values, memo))
            except (PoleAtPoint, ZeroDivisionError):
                raise PoleAtAssignment(
                    "step parameter has a pole at the assignment")
            if isinstance(step, ScaleRoots) and lv.is_zero():
                raise PoleAtAssignment("scaling parameter vanishes at the "
                                       "assignment: a pole of its inverse")
        m = step.mobius(m, lv)
    a, b, c, d = m
    zero = ctx.zero
    num = unipoly.trim([-b, d])  # dX - b, low-to-high
    den = unipoly.trim([a, -c])  # -cX + a
    den_pows = [[ctx.one]]
    for _ in range(f.n):
        den_pows.append(unipoly.mul(den_pows[-1], den, zero))
    # Horner in num, starting from f_n = 1; f_{n-i} comes with den^i
    g = [ctx.one]
    for i, fi in enumerate(f_spec, 1):
        g = unipoly.add(unipoly.mul(g, num, zero),
                        unipoly.scale(den_pows[i], fi), zero)
    if len(g) <= f.n:
        raise PoleAtAssignment("a root is sent to infinity: pole of the "
                               "composed Mobius map")
    return unipoly.monic(g) == list(reversed([ctx.one] + h_spec))
