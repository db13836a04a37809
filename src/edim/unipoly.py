"""Univariate polynomial helpers over exact field elements.

Coefficient lists are indexed by degree.  The functions are generic over any
element type supporting +, -, *, / (Fraction, FqElement, ExtElement); the
factorization routines additionally need an FqContext-like object carrying
``p``, ``q``, ``zero``, ``one``.  No library path factors any more: the tests'
root-based Tschirnhaus oracle does, and perfbench/tracer.py wraps
``factor_monic`` and ``roots_in_field`` by name.
"""

from __future__ import annotations

import random

from .errors import ZeroElement


def trim(c):
    while c and (c[-1] == 0 if isinstance(c[-1], int) else c[-1].is_zero()):
        c.pop()
    return c


def _is_zero_el(x):
    return x == 0 if isinstance(x, int) else x.is_zero()


def deg(a):
    return len(a) - 1


def add(a, b, zero):
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(x + y)
    return trim(out)


def sub(a, b, zero):
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(x - y)
    return trim(out)


def mul(a, b, zero):
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not _is_zero_el(ai):
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    return trim(out)


def scale(a, c):
    return trim([x * c for x in a])


def divmod_poly(a, b, zero):
    """Quotient and remainder; b nonzero."""
    if not b:
        raise ZeroElement("division by zero polynomial")
    a = list(a)
    db = len(b) - 1
    inv = (b[-1] ** 0) / b[-1] if not isinstance(b[-1], int) else 1 // b[-1]
    quo = [zero] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv
        d = len(a) - 1 - db
        if not _is_zero_el(c):
            quo[d] = c
            for i in range(db + 1):
                a[d + i] = a[d + i] - c * b[i]
        a.pop()
        trim(a)
    return trim(quo), trim(a)


def monic(a):
    if not a:
        return a
    inv = 1 / a[-1]
    return [x * inv for x in a]


def gcd_monic(a, b, zero):
    a, b = list(a), list(b)
    while b:
        b = monic(b)
        a, b = b, divmod_poly(a, b, zero)[1]
    return monic(a) if a else a


def powmod(base, e, m, zero, one):
    result = [one]
    base = divmod_poly(base, m, zero)[1]
    while e:
        if e & 1:
            result = divmod_poly(mul(result, base, zero), m, zero)[1]
        base = divmod_poly(mul(base, base, zero), m, zero)[1]
        e >>= 1
    return result


def derivative(a, field):
    out = []
    for i in range(1, len(a)):
        out.append(a[i] * field.from_int(i))
    return trim(out)


# ---------------------------------------------------------------------------
# extension fields F_q[X]/(P) on top of an FqContext base
# ---------------------------------------------------------------------------

class ExtField:
    """Quotient field base[X]/(modulus); modulus irreducible over the base."""

    def __init__(self, base, modulus):
        self.base = base
        self.modulus = tuple(monic(list(modulus)))
        self.d = len(modulus) - 1
        self.p = base.p
        self.q = base.q ** self.d
        self.zero = ExtElement(self, (base.zero,) * self.d)
        one = [base.one] + [base.zero] * (self.d - 1)
        self.one = ExtElement(self, tuple(one))

    def element(self, coeffs):
        coeffs = list(coeffs)[: self.d]
        coeffs += [self.base.zero] * (self.d - len(coeffs))
        return ExtElement(self, tuple(coeffs))

    def from_int(self, n):
        return self.element([self.base.from_int(n)])

    def from_base(self, x):
        return self.element([x])

    def gen(self):
        """The canonical root of the modulus (X reduced mod the modulus)."""
        if self.d == 1:
            return self.from_base(-self.modulus[0])
        return self.element([self.base.zero, self.base.one])

    def coerce(self, v):
        if isinstance(v, ExtElement) and v.field is self:
            return v
        if isinstance(v, int):
            return self.from_int(v)
        return self.from_base(self.base.coerce(v))


class ExtElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _c(self, other):
        if isinstance(other, ExtElement):
            return other
        return self.field.coerce(other)

    def __add__(self, other):
        o = self._c(other)
        return ExtElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._c(other)
        return ExtElement(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return self._c(other) - self

    def __neg__(self):
        return ExtElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._c(other)
        F = self.field
        zero = F.base.zero
        prod = mul(list(self.coeffs), list(o.coeffs), zero)
        _, rem = divmod_poly(prod, list(F.modulus), zero)
        rem += [zero] * (F.d - len(rem))
        return ExtElement(F, tuple(rem[: F.d]))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroElement("inverse of zero")
        F = self.field
        zero = F.base.zero
        r0, r1 = list(F.modulus), trim(list(self.coeffs))
        s0, s1 = [], [F.base.one]
        while r1:
            q, r = divmod_poly(r0, r1, zero)
            r0, r1 = r1, r
            s0, s1 = s1, sub(s0, mul(q, s1, zero), zero)
        inv_c = F.base.one / r0[0]
        s0 = scale(s0, inv_c)
        _, s0 = divmod_poly(s0, list(F.modulus), zero)
        return F.element(s0)

    def __truediv__(self, other):
        return self * self._c(other).inverse()

    def __rtruediv__(self, other):
        return self._c(other) * self.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return (isinstance(other, ExtElement) and self.field.modulus == other.field.modulus
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def encode(self):
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.base.q + c.encode()
        return v

    def __repr__(self):
        return "Ext(%s)" % (list(self.coeffs),)


# ---------------------------------------------------------------------------
# factorization over a finite field context
# ---------------------------------------------------------------------------

def _pth_root(c, ctx):
    # Frobenius is bijective: the p-th root of c is c^(q/p)
    return c ** (ctx.q // ctx.p)


def squarefree_parts(f, ctx):
    """Decompose monic f as product of (squarefree g_i)^i; yields (g, mult)."""
    zero = ctx.zero
    out = []
    f = monic(list(f))
    df = derivative(f, ctx)
    if not df:
        # f = g(X^p) = (g*)^p with g* the coefficient-wise p-th root
        g = [_pth_root(f[i], ctx) for i in range(0, len(f), ctx.p)]
        for part, m in squarefree_parts(g, ctx):
            out.append((part, m * ctx.p))
        return out
    c = gcd_monic(f, df, zero)
    w = divmod_poly(f, c, zero)[0]  # squarefree part of the non-p-power content
    i = 1
    while len(w) > 1:
        y = gcd_monic(w, c, zero)
        fac = divmod_poly(w, y, zero)[0]
        if len(fac) > 1:
            out.append((fac, i))
        w = y
        c = divmod_poly(c, y, zero)[0]
        i += 1
    if len(c) > 1:
        # residual c is the p-power part; the recursive call lands in the
        # zero-derivative branch, which already scales multiplicities by p
        for part, m in squarefree_parts(c, ctx):
            out.append((part, m))
    return out


def distinct_degree(f, ctx):
    """Split squarefree monic f into products of same-degree irreducibles."""
    zero, one = ctx.zero, ctx.one
    out = []
    x = [zero, one]
    h = x
    f = list(f)
    d = 0
    while len(f) - 1 > 2 * d:
        d += 1
        h = powmod(h, ctx.q, f, zero, one)
        g = gcd_monic(sub(h, x, zero), f, zero)
        if len(g) > 1:
            out.append((g, d))
            f = divmod_poly(f, g, zero)[0]
            h = divmod_poly(h, f, zero)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def equal_degree_factor(f, d, ctx, rng):
    """Cantor-Zassenhaus: split monic squarefree f, all factors of degree d."""
    zero, one = ctx.zero, ctx.one
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = [_random_element(ctx, rng) for _ in range(n)]
        r = trim(r)
        if len(r) <= 1:
            continue
        if ctx.p == 2:
            # trace map r + r^2 + ... + r^(2^(kd-1))
            bits = (ctx.q ** d).bit_length() - 1
            t = list(r)
            cur = list(r)
            for _ in range(bits - 1):
                cur = powmod(cur, 2, f, zero, one)
                t = add(t, cur, zero)
            g = gcd_monic(t, f, zero)
        else:
            t = powmod(r, (ctx.q ** d - 1) // 2, f, zero, one)
            g = gcd_monic(sub(t, [one], zero), f, zero)
        if 1 < len(g) < len(f):
            left = divmod_poly(f, g, zero)[0]
            return equal_degree_factor(g, d, ctx, rng) + equal_degree_factor(left, d, ctx, rng)


def _random_element(ctx, rng):
    if hasattr(ctx, "k"):
        return ctx.element(tuple(rng.randrange(ctx.p) for _ in range(ctx.k)))
    return ctx.element([ctx.base.element(tuple(rng.randrange(ctx.p) for _ in range(ctx.base.k)))
                        for _ in range(ctx.d)])


def factor_monic(f, ctx, rng=None):
    """Irreducible factorization of monic f over F_q; list of (factor, mult)."""
    if rng is None:
        rng = random.Random(0)
    out = []
    for part, m in squarefree_parts(f, ctx):
        for block, d in distinct_degree(part, ctx):
            for irr in equal_degree_factor(block, d, ctx, rng):
                out.append((irr, m))
    out.sort(key=lambda t: (len(t[0]), [c.encode() for c in t[0]]))
    return out


def roots_in_field(f, ctx, rng=None):
    """Roots of f (not nec. monic) lying in F_q itself, with multiplicity."""
    f = monic(trim(list(f)))
    roots = []
    for irr, m in factor_monic(f, ctx, rng):
        if len(irr) == 2:  # X + c
            roots.extend([-irr[0]] * m)
    return roots
