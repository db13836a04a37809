"""GL_2 and PGL_2 over finite fields: canonical representatives, projective
orders, the trace invariant tr^2/det, exhaustive subgroup-embedding search,
and the explicit dihedral / elementary-abelian matrix representations.

The work runs on integer codes: an F_q element is its ``encode()``, a matrix
a 4-tuple of codes, a projective class the code a*q^3 + b*q^2 + c*q + d of
its canonical representative.  Each field's ``_Kernel`` holds add, mul, neg
and inverse tables on the codes, the order census and the memoized
``pgl2_embeds`` verdicts; ``Mat2`` and ``PGL2Element`` carry results only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .errors import (DependentAlphas, EvenChar, RealZetaAbsent, TooLarge,
                     ZeroElement)
from .exactfield import FqElement
from .groups import Cyc, Dih, ElemAb

Q_CAP = 27


class Mat2:
    """2x2 matrix over an FqContext; invertible when used as a group element."""

    __slots__ = ("ctx", "a", "b", "c", "d")

    def __init__(self, ctx, a, b, c, d):
        self.ctx = ctx
        self.a, self.b, self.c, self.d = (ctx.coerce(a), ctx.coerce(b),
                                          ctx.coerce(c), ctx.coerce(d))

    def det(self):
        return self.a * self.d - self.b * self.c

    def __mul__(self, o):
        return Mat2(self.ctx,
                    self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def inverse(self):
        dt = self.det()
        if dt.is_zero():
            raise ZeroElement("singular matrix")
        di = dt.inverse()
        return Mat2(self.ctx, self.d * di, -self.b * di, -self.c * di, self.a * di)

    def is_scalar(self):
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d

    def is_identity(self):
        return self.is_scalar() and self.a == self.ctx.one

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, o):
        return isinstance(o, Mat2) and self.entries() == o.entries()

    def __hash__(self):
        return hash(tuple(x.encode() for x in self.entries()))

    def __repr__(self):
        return "[[%s,%s],[%s,%s]]" % tuple(x.encode() for x in self.entries())


@dataclass(frozen=True)
class PGL2Element:
    """Scalar class of an invertible Mat2 in canonical form: the first nonzero
    entry in reading order (a, b, c, d) is scaled to 1."""

    rep: Mat2

    @staticmethod
    def of(m):
        if m.det().is_zero():
            raise ZeroElement("singular matrix has no projective class")
        for x in m.entries():
            if not x.is_zero():
                xi = x.inverse()
                return PGL2Element(Mat2(m.ctx, m.a * xi, m.b * xi,
                                        m.c * xi, m.d * xi))
        raise ZeroElement("zero matrix")

    def __mul__(self, o):
        return PGL2Element.of(self.rep * o.rep)

    def inverse(self):
        return PGL2Element.of(self.rep.inverse())

    def is_identity(self):
        return self.rep.is_scalar()

    def encode(self):
        q = self.rep.ctx.q
        v = 0
        for x in self.rep.entries():
            v = v * q + x.encode()
        return v

    def __repr__(self):
        return "PGL2(%r)" % (self.rep,)


def _check_cap(ctx):
    if ctx.q > Q_CAP:
        raise TooLarge("PGL_2 enumeration capped at q = %d" % Q_CAP)


class _Table(dict):
    """An F_q operation on codes, filled from FqElement arithmetic on first
    use; kept only for q <= Q_CAP (dn_representation reads few entries of
    a larger field's table, which would not fit in memory)."""

    def __init__(self, fn, keep):
        super().__init__()
        self.fn, self.keep = fn, keep

    def __missing__(self, key):
        val = self.fn(key)
        if self.keep:
            self[key] = val
        return val


class _Kernel:
    def __init__(self, ctx):
        self.ctx, self.q, keep = ctx, ctx.q, ctx.q <= Q_CAP
        self.q2, self.q3 = ctx.q ** 2, ctx.q ** 3

        def op(f):
            return _Table(lambda x: _Table(lambda y, ex=self.fq(x): f(
                ex, self.fq(y)).encode(), keep), keep)
        self.add, self.mul = op(operator.add), op(operator.mul)
        self.neg = _Table(lambda x: (-self.fq(x)).encode(), keep)
        self.inv = _Table(lambda x: self.fq(x).inverse().encode(), keep)
        self.verdicts, self.orders = {}, None

    def fq(self, x):
        p, k = self.ctx.p, self.ctx.k
        return FqElement(self.ctx, [x // p ** i % p for i in range(k)])

    def mat(self, x):
        q = self.q
        return x // self.q3, x // self.q2 % q, x // q % q, x % q

    def element(self, code):
        return PGL2Element(Mat2(self.ctx, *map(self.fq, self.mat(code))))

    def prod(self, x, y):
        """Code of the product of the classes with codes x and y."""
        add, mul, q, q2, q3 = self.add, self.mul, self.q, self.q2, self.q3
        a, b, c, d = x // q3, x // q2 % q, x // q % q, x % q
        e, f, g, h = y // q3, y // q2 % q, y // q % q, y % q
        m = (add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
             add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]])
        row = mul[self.inv[m[0] or m[1]]]
        return ((row[m[0]] * q + row[m[1]]) * q + row[m[2]]) * q + row[m[3]]

    def order(self, m, cap, linear=False):
        """Least d <= cap with m^d scalar (m a 4-tuple of codes), or with
        m^d = 1 if linear; else None."""
        add, mul = self.add, self.mul
        ra, rb, rc, rd = (mul[x] for x in m)
        a, b, c, d = m
        for n in range(1, cap + 1):
            if b == 0 and c == 0 and a == d and (a == 1 or not linear):
                return n
            a, b, c, d = (add[ra[a]][rc[b]], add[rb[a]][rd[b]],
                          add[ra[c]][rc[d]], add[rb[c]][rd[d]])
        return None

    def census(self):
        """Map order -> ascending codes of the classes of that order."""
        if self.orders is None:
            q, q2, q3, self.orders = self.q, self.q2, self.q3, {}
            # canonical codes: (0, 1, c != 0, d), then (1, b, c, d != bc)
            for x in chain(range(q2 + q, 2 * q2), range(q3, 2 * q3)):
                m = self.mat(x)
                if m[0] == 0 or m[3] != self.mul[m[1]][m[2]]:
                    self.orders.setdefault(self.order(m, q2 + q + 1),
                                           []).append(x)
        return self.orders


_kernel = lru_cache(maxsize=None)(_Kernel)  # one per field context


def pgl2_enumerate(ctx):
    """All q^3 - q projective classes, canonical, ascending by code."""
    _check_cap(ctx)
    k = _kernel(ctx)
    return [k.element(x) for x in sorted(chain(*k.census().values()))]


def pgl2_order(e):
    """Least d >= 1 with rep^d scalar."""
    k, q = _kernel(e.rep.ctx), e.rep.ctx.q
    d = k.order(k.mat(e.encode()), q * q + q + 1)
    if d is None:
        raise AssertionError("order computation exceeded group bound")
    return d


def trace_invariant(e):
    """tr^2 / det of any representative; equals zeta_n + zeta_n^{-1} + 2 when
    the projective order n is coprime to the characteristic."""
    k = _kernel(e.rep.ctx)
    (a, b, c, d), add, mul = k.mat(e.encode()), k.add, k.mul
    t = add[a][d]
    return k.fq(mul[mul[t][t]][k.inv[add[mul[a][d]][k.neg[mul[b][c]]]]])


def order_census(ctx):
    """Map order -> sorted list of PGL2Elements of that order."""
    _check_cap(ctx)
    k = _kernel(ctx)
    return {n: [k.element(x) for x in codes]
            for n, codes in k.census().items()}


@dataclass(frozen=True)
class PGL2Witness:
    group: object
    images: tuple  # one PGL2Element per standard generator


def pgl2_embeds(h, ctx):
    """Exhaustive search for an embedding of h into PGL_2(F_q).

    Returns a PGL2Witness or None (a definite No: the search is exhaustive).
    Verdicts are memoized per (group, field).
    """
    _check_cap(ctx)
    if not isinstance(h, (Cyc, Dih, ElemAb)):
        raise TooLarge("unsupported family for PGL_2 search")
    if isinstance(h, Cyc) and h.n > 60:
        raise TooLarge("cyclic search capped at n = 60")
    if isinstance(h, Dih) and h.n > 30:
        raise TooLarge("dihedral search capped at n = 30")
    if isinstance(h, ElemAb) and h.p ** h.r > 64:
        raise TooLarge("elementary abelian search capped at order 64")
    k = _kernel(ctx)
    if h not in k.verdicts:
        got = _search(k, h)
        k.verdicts[h] = None if got is None else PGL2Witness(
            h, tuple(k.element(x) for x in got))
    return k.verdicts[h]


def _search(k, h):
    census, ident = k.census(), k.q3 + 1
    if isinstance(h, Cyc):
        if h.n == 1:
            return ()
        cands = census.get(h.n)
        return (cands[0],) if cands else None
    if isinstance(h, Dih):
        invol = census.get(2, [])
        if h.n == 1:  # D_1 = C_2
            return (ident, invol[0]) if invol else None
        for s in census.get(h.n, []):
            spowers = [s]  # s, s^2, ..., s^n = 1, so s^-1 = spowers[-2]
            while len(spowers) < h.n:
                spowers.append(k.prod(spowers[-1], s))
            for t in invol:
                if t not in spowers and \
                        k.prod(k.prod(t, s), t) == spowers[-2]:
                    return s, t
        return None
    p, r = h.p, h.r

    def extend(gens, subgroup, cands, start):
        if len(gens) == r:
            return tuple(gens)
        if len(gens) == 1:
            # only what commutes with the first generator can follow it;
            # census order is kept, so the search and its No are unchanged
            first = gens[0]
            cands = [x for x in cands if k.prod(x, first) == k.prod(first, x)]
            start = cands.index(first) + 1
        for i in range(start, len(cands)):
            x = cands[i]
            if x in subgroup or any(k.prod(x, g) != k.prod(g, x)
                                    for g in gens[1:]):
                continue
            xpowers = [x]
            while len(xpowers) < p - 1:
                xpowers.append(k.prod(xpowers[-1], x))
            got = extend(gens + [x], subgroup | {
                k.prod(a, y) for a in subgroup for y in xpowers}, cands, i + 1)
            if got is not None:
                return got
        return None

    return extend([], {ident}, census.get(p, []), 0)


def dp_representation(ctx):
    """D_p inside GL_2(F_q) in characteristic p odd: the unipotent rotation
    [[1,1],[0,1]] and the reflection [[1,0],[0,-1]]."""
    p = ctx.p
    if p == 2:
        raise EvenChar("characteristic must be odd")
    s = Mat2(ctx, 1, 1, 0, 1)
    t = Mat2(ctx, 1, 0, 0, -ctx.one)
    _assert_dihedral(s, t, p)
    return s, t


def dn_representation(ctx, n):
    """D_n inside GL_2(F_q) when p does not divide n and c = zeta_n +
    zeta_n^{-1} lies in F_q: the companion matrix of X^2 - cX + 1, of exact
    order n, and the reflection [[1, c], [0, -1]]."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if n % ctx.p == 0:
        raise RealZetaAbsent("n divisible by the characteristic")
    k = _kernel(ctx)
    for c in range(ctx.q):
        if k.order((0, k.neg[1], 1, c), n, linear=True) == n:
            s = Mat2(ctx, ctx.zero, -ctx.one, ctx.one, k.fq(c))
            t = Mat2(ctx, ctx.one, k.fq(c), ctx.zero, -ctx.one)
            _assert_dihedral(s, t, n)
            return s, t
    raise RealZetaAbsent("zeta_%d + zeta_%d^-1 is not in F_%d" % (n, n, ctx.q))


def elemab_representation(ctx, alphas):
    """(Z/pZ)^r inside GL_2 via [[1, alpha_i],[0,1]]; alphas F_p-independent."""
    alphas = [ctx.coerce(a) for a in alphas]
    p, r = ctx.p, len(alphas)
    # exhaustive independence scan over all F_p-combinations
    for code in range(1, p ** r):
        acc = ctx.zero
        cc = code
        for a in alphas:
            acc = acc + a * (cc % p)
            cc //= p
        if acc.is_zero():
            raise DependentAlphas("alphas are F_p-dependent")
    mats = [Mat2(ctx, 1, a, 0, 1) for a in alphas]
    for m in mats:
        acc = m
        for _ in range(p - 1):
            acc = acc * m
        assert acc.is_identity()
    return mats


def _assert_dihedral(s, t, n):
    acc = s
    for _ in range(n - 1):
        acc = acc * s
    assert acc.is_identity(), "s^n != 1"
    assert (t * t).is_identity(), "t^2 != 1"
    assert t * s * t.inverse() == s.inverse(), "t s t^-1 != s^-1"
