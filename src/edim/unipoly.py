"""Univariate factorization over F_q: ``factor_monic`` and ``roots_in_field``,
and the polynomial arithmetic they need.

Coefficient lists are indexed by degree, over elements with ``is_zero``,
``inverse``, +, -, * and / (FqElement, or the tests' extension-field
elements); the factorization routines also take the FqContext.  No library
path imports this module: the tests' root-based Tschirnhaus oracle factors
with it, and perfbench/tracer.py wraps ``factor_monic`` and
``roots_in_field`` by name.
"""

from __future__ import annotations

import random

from .errors import ZeroElement
from .exactfield import _power


def trim(c):
    while c and c[-1].is_zero():
        c.pop()
    return c


def add(a, b, zero):
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(x + y)
    return trim(out)


def sub(a, b, zero):
    return add(a, [-y for y in b], zero)


def mul(a, b, zero):
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero():
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    return trim(out)


def divmod_poly(a, b, zero):
    """Quotient and remainder; b nonzero."""
    if not b:
        raise ZeroElement("division by zero polynomial")
    a = list(a)
    db = len(b) - 1
    inv = b[-1].inverse()
    quo = [zero] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv
        d = len(a) - 1 - db
        if not c.is_zero():
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


def powmod(base, e, m, zero):
    """base^e mod m for e >= 1."""
    def mulmod(a, b):
        return divmod_poly(mul(a, b, zero), m, zero)[1]
    return _power(mulmod, divmod_poly(base, m, zero)[1], e)


def derivative(a, field):
    out = []
    for i in range(1, len(a)):
        out.append(a[i] * field.from_int(i))
    return trim(out)


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
        h = powmod(h, ctx.q, f, zero)
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
                cur = powmod(cur, 2, f, zero)
                t = add(t, cur, zero)
            g = gcd_monic(t, f, zero)
        else:
            t = powmod(r, (ctx.q ** d - 1) // 2, f, zero)
            g = gcd_monic(sub(t, [one], zero), f, zero)
        if 1 < len(g) < len(f):
            left = divmod_poly(f, g, zero)[0]
            return equal_degree_factor(g, d, ctx, rng) + equal_degree_factor(left, d, ctx, rng)


def _random_element(ctx, rng):
    return ctx.element(tuple(rng.randrange(ctx.p) for _ in range(ctx.k)))


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
