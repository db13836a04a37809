"""GL_2 and PGL_2 over finite fields: canonical representatives, projective
orders, conjugacy classes by tr^2/det, exhaustive subgroup-embedding search,
and the explicit dihedral / elementary-abelian matrix representations.

The work runs on integer codes: an F_q element is its code, a matrix
a 4-tuple of codes, a projective class the code a*q^3 + b*q^2 + c*q + d of
its canonical representative.  Each field's ``_Kernel``, for q <= Q_CAP
only, holds the F_q tables on codes, filled once as plain lists, and the
census, built once by one pass over the q^3 - q canonical codes: the codes
of each order, and each conjugacy class's key, order and least code.
``Mat2``, ``PGL2Element`` carry results.  The engine does not import this
module: its R-PGL-OBS reads Dickson's closed form, which the tests check
against ``pgl2_embeds``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from math import gcd

from .errors import (DependentAlphas, EvenChar, RealZetaAbsent, TooLarge,
                     ZeroElement)
from .exactfield import (FqElement, _digits, _power, factorize,
                         independent_mod_p)
from .fielddesc import YES, FiniteField
from .groups import Cyc, Dih, ElemAb
from .record import Record

Q_CAP = 27
# dn_representation walks n/2 traces, each a product and a difference in
# F_q: up to about 70 us apiece over F_{p^12} with q above
# exactfield.TABLE_CAP, the dearest fields, so the walk at n = DN_CAP costs
# up to about 0.35 s there.
DN_CAP = 10 ** 4


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

    def __pow__(self, n):  # n >= 1
        return _power(Mat2.__mul__, self, n)

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


class PGL2Element(Record):
    """Scalar class of an invertible Mat2 in canonical form: the first nonzero
    entry in reading order (a, b, c, d) is scaled to 1."""

    __slots__ = ("rep",)

    @staticmethod
    def of(m):
        if m.det().is_zero():
            raise ZeroElement("singular matrix has no projective class")
        for x in m.entries():
            if not x.is_zero():
                xi = x.inverse()
                return PGL2Element(Mat2(m.ctx, m.a * xi, m.b * xi,
                                        m.c * xi, m.d * xi))

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


def check_q_cap(q):
    """Refuse PGL_2(F_q) enumeration past Q_CAP: the kernel's tables, the
    census and the embedding search all grow with q^3."""
    if q > Q_CAP:
        raise TooLarge("PGL_2 enumeration capped at q = %d" % Q_CAP)


class _Kernel:
    def __init__(self, ctx):
        check_q_cap(ctx.q)
        self.ctx, self.q, els = ctx, ctx.q, range(ctx.q)
        self.q2, self.q3 = ctx.q ** 2, ctx.q ** 3
        self.add = [[ctx.add(x, y) for y in els] for x in els]
        self.mul = [[ctx.mul(x, y) for y in els] for x in els]
        self.neg = [ctx.neg(x) for x in els]
        self.inv = [0] + [ctx.inv(x) for x in els[1:]]  # inv[0] is never read

    def fq(self, x):
        return FqElement(self.ctx, x)

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

    def key(self, m):
        """Class key of the invertible, non-scalar matrix m (a 4-tuple of
        codes): u = tr^2/det, and whether det is a square when tr = 0, which
        splits the two involution classes of odd q (Dickson)."""
        add, mul, (a, b, c, d) = self.add, self.mul, m
        t, det = add[a][d], add[mul[a][d]][self.neg[mul[b][c]]]
        return mul[mul[t][t]][self.inv[det]], t == 0 and det in self.squares

    @cached_property
    def squares(self):
        return {self.mul[x][x] for x in range(self.q)}

    @cached_property
    def census(self):
        """One pass over the q^3 - q canonical codes, ascending: (order ->
        ascending codes, class key -> (order, least code)), both in order
        of first appearance.  The order is p for u = 4 (unipotent), else
        that of the first class met with its u."""
        q, q2, q3, mul, p = self.q, self.q2, self.q3, self.mul, self.ctx.p
        by_order, by_key, by_u = {1: [q3 + 1]}, {}, {4 % p: p}
        # (0, 1, c != 0, d), then (1, b, c, d != bc) past (1, 0, 0, 0) and
        # the identity (1, 0, 0, 1)
        for x in chain(range(q2 + q, 2 * q2), range(q3 + 2, 2 * q3)):
            m = self.mat(x)
            if m[0] == 0 or m[3] != mul[m[1]][m[2]]:
                key = self.key(m)
                if key[0] not in by_u:
                    by_u[key[0]] = self.order(m, q + 1)
                by_key.setdefault(key, (by_u[key[0]], x))
                by_order.setdefault(by_u[key[0]], []).append(x)
        return by_order, by_key


_kernel = lru_cache(maxsize=None)(_Kernel)  # one per field context


def pgl2_enumerate(ctx):
    """All q^3 - q projective classes, canonical, ascending by code."""
    k = _kernel(ctx)
    return [k.element(x) for x in sorted(chain(*k.census[0].values()))]


def pgl2_order(e):
    """Least d >= 1 with rep^d scalar; d <= q + 1 in PGL_2(F_q)."""
    k, q = _kernel(e.rep.ctx), e.rep.ctx.q
    return k.order(k.mat(e.encode()), q + 1)


def trace_invariant(e):
    """tr^2 / det of any representative; equals zeta_n + zeta_n^{-1} + 2 when
    the projective order n is coprime to the characteristic."""
    k = _kernel(e.rep.ctx)
    return k.fq(k.key(k.mat(e.encode()))[0])


def order_census(ctx):
    """Map order -> sorted list of PGL2Elements of that order."""
    k = _kernel(ctx)
    return {n: [k.element(x) for x in xs]
            for n, xs in k.census[0].items()}


class PGL2Witness(Record):
    __slots__ = ("group", "images")  # images: a PGL2Element per generator


def pgl2_embeds(h, ctx):
    """Exhaustive search for an embedding of h into PGL_2(F_q): a
    PGL2Witness, or None, a definite No."""
    k = _kernel(ctx)  # raises the q cap first
    if not isinstance(h, (Cyc, Dih, ElemAb)):
        raise TooLarge("unsupported family for PGL_2 search")
    if isinstance(h, ElemAb) and (h.r > 6 or h.p ** h.r > 64):  # 2^7 > 64
        raise TooLarge("elementary abelian search capped at order 64")
    got = _search(k, h)
    return None if got is None else PGL2Witness(
        h, tuple(k.element(x) for x in got))


def _search(k, h):
    """Generators of an embedding of h, as codes, or None.  Every embedding
    is conjugate to one whose first generator is a class's least code of
    its order, so trying only those keeps a No exhaustive; the later
    generators run over all the codes of their order."""
    ident, (by_order, by_key) = k.q3 + 1, k.census
    n = h.p if isinstance(h, ElemAb) else h.n
    reps = [x for order, x in by_key.values() if order == n]
    if isinstance(h, Dih):
        invol = by_order.get(2, [])
        if n == 1:  # D_1 = C_2
            return (ident, invol[0]) if invol else None
        for s in reps:
            spowers = [s]  # s, s^2, ..., s^n = 1, so s^-1 = spowers[-2]
            while len(spowers) < n:
                spowers.append(k.prod(spowers[-1], s))
            for t in invol:
                if t not in spowers and k.prod(k.prod(t, s), t) == spowers[-2]:
                    return s, t
        return None
    if isinstance(h, Cyc) or h.r == 1:  # C_n, and E(l,1) = C_l
        return () if n == 1 else (reps[0],) if reps else None

    def extend(gens, subgroup, cands):
        if len(gens) == h.r:
            return tuple(gens)
        for i, x in enumerate(cands):
            if x in subgroup or any(k.prod(x, g) != k.prod(g, x)
                                    for g in gens[1:]):
                continue
            xpowers = [x]
            while len(xpowers) < n - 1:
                xpowers.append(k.prod(xpowers[-1], x))
            # the later generators lie in the first one's centralizer
            later = cands[i + 1:] if gens else [
                y for y in by_order[n] if k.prod(y, x) == k.prod(x, y)]
            got = extend(gens + [x], subgroup | {
                k.prod(a, y) for a in subgroup for y in xpowers}, later)
            if got is not None:
                return got
        return None

    return extend([], {ident}, reps)


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
    if n > DN_CAP:
        raise TooLarge("dihedral representation capped at n = %d" % DN_CAP)
    if n % ctx.p == 0:
        raise RealZetaAbsent("n divisible by the characteristic")
    if FiniteField(ctx.p, ctx.k).contains_real_zeta(n) is not YES:
        raise RealZetaAbsent("zeta_%d + zeta_%d^-1 is not in F_%d"
                             % (n, n, ctx.q))
    c = FqElement(ctx, _rotation_trace(ctx, n))
    s = Mat2(ctx, ctx.zero, -ctx.one, ctx.one, c)
    t = Mat2(ctx, ctx.one, c, ctx.zero, -ctx.one)
    _assert_dihedral(s, t, n)
    return s, t


def _rotation_trace(ctx, n):
    """The least code among the traces c_j = zeta^j + zeta^-j, gcd(j, n) = 1,
    of a primitive n-th root zeta (p not dividing n, n | q - 1 or n | q + 1):
    the c whose companion matrix of X^2 - cX + 1 has linear order n.  c_1 is
    tr M_t^e, e = (q -+ 1)/n, for the first companion matrix M_t of
    X^2 - tX + 1 whose power has order n (a generator of F_q^* or of the
    norm-1 elements of F_q^2 gives one); then c_{j+1} = c_1 c_j - c_{j-1}.
    t runs over F_q in the order i m mod q, m near 0.618 q, not in code
    order: the first codes are F_p, whose roots have orders dividing p - 1
    or p + 1 (for k = 2 none serves an n > 2 dividing q + 1), then the
    a + bX, whose norms to F_p are (-b)^k f(-a/b) for the modulus f, so
    the power characters that decide the order can fail on long runs of
    them.  Which c_1 is found does not change the least c_j."""
    sub, mul, two = ctx.sub, ctx.mul, 2 % ctx.p

    def trace(t, e):  # tr M_t^e = V_e(t), by V_2j = V_j^2 - 2 and
        v, w = two, t  # V_2j+1 = V_j V_j+1 - t; (v, w) = (V_j, V_j+1)
        for bit in bin(e)[2:]:
            if bit == "1":
                v, w = sub(mul(v, w), t), sub(mul(w, w), two)
            else:
                v, w = sub(mul(v, v), two), sub(mul(v, w), t)
        return v

    e = (ctx.q - 1) // n if (ctx.q - 1) % n == 0 else (ctx.q + 1) // n
    m = ctx.q * 618 // 1000
    m += m % ctx.p == 0  # prime to q, so i -> i m mod q permutes F_q
    ts = (i * m % ctx.q for i in range(ctx.q))
    c1 = next(c for c in (trace(t, e) for t in ts)
              if trace(c, n) == two  # zeta^n = 1, and no smaller order
              and all(trace(c, n // r) != two for r, _ in factorize(n)))
    best, prev, cur = c1, two, c1
    for j in range(2, n // 2 + 1):  # c_j = c_(n-j)
        prev, cur = cur, sub(mul(c1, cur), prev)
        if cur < best and gcd(j, n) == 1:
            best = cur
    return best


def elemab_representation(ctx, alphas):
    """(Z/pZ)^r inside GL_2 via [[1, alpha_i],[0,1]]; alphas F_p-independent."""
    alphas = [ctx.coerce(a) for a in alphas]
    if not independent_mod_p((dict(enumerate(_digits(a.code, ctx.p, ctx.k)))
                              for a in alphas), ctx.p):
        raise DependentAlphas("alphas are F_p-dependent")
    mats = [Mat2(ctx, 1, a, 0, 1) for a in alphas]
    assert all((m ** ctx.p).is_identity() for m in mats)
    return mats


def _assert_dihedral(s, t, n):
    assert (s ** n).is_identity(), "s^n != 1"
    assert (t * t).is_identity(), "t^2 != 1"
    assert t * s * t.inverse() == s.inverse(), "t s t^-1 != s^-1"
