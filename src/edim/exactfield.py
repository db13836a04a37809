"""Exact arithmetic for Q and for the finite fields F_q = F_{p^k}.

Rational numbers are stdlib ``fractions.Fraction`` (re-exported as
``Rational``).  Finite fields are modelled as F_p[X]/(m(X)) where m is the
lexicographically smallest monic irreducible of degree k, so serialized
elements are reproducible across runs.  Prime fields (k = 1) use the same
element interface with modulus X.  An element is its integer code
c_0 + c_1 p + ... + c_{k-1} p^{k-1}: prime fields compute with ints mod p,
fields with q <= TABLE_CAP with log, antilog and Zech tables, built on the
first operation, and larger fields with polynomial products mod m.  Besides
the one-operation closures, a context has three whole-sum kernels (a coded
term sum at a point, a product of powers, a Taylor shift of a code list):
over F_p they compute in plain ints and reduce mod p once per result, and
over the other kinds they run the closures one operation at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

from .errors import DegreeTooLarge, NotPrime, TooLarge, ZeroElement

Rational = Fraction

K_CAP = 12
FACTOR_CAP = 10 ** 6  # the largest trial divisor: every n <= 10^12 factors
TABLE_CAP = 2 ** 10  # the largest q whose field operations are table lookups


def _least_factor(n, start=2):
    """The least prime factor of n > 1, which has none below start, by trial
    division; TooLarge when that needs a divisor above FACTOR_CAP."""
    if start <= 2 and n % 2 == 0:
        return 2
    root = math.isqrt(n)
    for d in range(max(3, start | 1), min(root, FACTOR_CAP) + 1, 2):
        if n % d == 0:
            return d
    if root > FACTOR_CAP:
        raise TooLarge("trial division capped at divisor %d" % FACTOR_CAP)
    return n


@lru_cache(maxsize=None)  # fq_context(p, k) asks again for every k
def is_prime(n: int) -> bool:
    return n >= 2 and _least_factor(n) == n


@lru_cache(maxsize=None)
def factorize(n):
    """((p, a), ...) with n = prod p^a, by ascending prime."""
    out, p = [], 2
    while n > 1:
        p = _least_factor(n, p)
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        out.append((p, a))
    return tuple(out)


def divisors(n):
    """The divisors of n in ascending order, from its factorization."""
    out = [1]
    for p, a in factorize(n):
        out = [d * p ** i for d in out for i in range(a + 1)]
    return sorted(out)


def totient(n):
    """Euler's phi of n >= 1, from its factorization."""
    return math.prod((p - 1) * p ** (a - 1) for p, a in factorize(n))


def order_mod(a, m):
    """The multiplicative order of a modulo m, for a prime to m."""
    n = totient(m)
    for p, _ in factorize(n):
        while n % p == 0 and pow(a, n // p, m) == 1 % m:
            n //= p
    return n


# ---------------------------------------------------------------------------
# dense F_p[X] helpers on coefficient lists (index = degree)
# ---------------------------------------------------------------------------

def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for i in range(dm):
                a[off + i] = (a[off + i] - c * m[i]) % p
        a.pop()
    return _trim(a)


def _pgcd(a, b, p):
    """(g, s) for a, b in F_p[X], not both 0: g their monic gcd and s with
    s a = g mod b, by the extended Euclidean algorithm."""
    r0, r1, s0, s1 = _trim(list(a)), _trim(list(b)), [1], []
    while r1:
        inv = pow(r1[-1], p - 2, p)
        quot = [0] * max(len(r0) - len(r1) + 1, 0)
        while len(r0) >= len(r1):  # r0 <- r0 mod r1, keeping the quotient
            off = len(r0) - len(r1)
            quot[off] = c = r0[-1] * inv % p
            for i, x in enumerate(r1):
                r0[off + i] = (r0[off + i] - c * x) % p
            _trim(r0)
        prod = _pmul(quot, s1, p)
        s = s0 + [0] * (len(prod) - len(s0))
        for i, x in enumerate(prod):
            s[i] = (s[i] - x) % p
        r0, r1, s0, s1 = r1, r0, s1, _trim(s)
    inv = pow(r0[-1], p - 2, p)
    return [c * inv % p for c in r0], [c * inv % p for c in s0]


def _digits(code, p, k):
    """The coefficients c_0..c_{k-1} of the element with this code."""
    out = []
    for _ in range(k):
        code, c = divmod(code, p)
        out.append(c)
    return out


def independent_mod_p(vectors, p):
    """Whether the vectors over F_p, each a dict index -> coordinate, are
    F_p-independent, by Gaussian elimination mod p: each is reduced by the
    kept ones at their pivots (lowest indices), and kept, scaled to 1 at its
    pivot, unless it reduces to 0."""
    basis = {}  # pivot -> a kept vector that is 1 there
    for v in vectors:
        v = {i: x % p for i, x in v.items() if x % p}
        while v and min(v) in basis:
            c, w = v[min(v)], basis[min(v)]
            v = {i: x for i in v.keys() | w.keys()
                 if (x := (v.get(i, 0) - c * w.get(i, 0)) % p)}
        if not v:
            return False
        inv = pow(v[min(v)], -1, p)
        basis[min(v)] = {i: x * inv % p for i, x in v.items()}
    return True


def _code(coeffs, p):
    """The code sum c_i p^i of the coefficients c_0, c_1, ... (taken mod p)."""
    v = 0
    for c in reversed(coeffs):
        v = v * p + c % p
    return v


def _power(mul, x, e):
    """x^e for e >= 1, with mul the product, left to right: a squaring per
    bit after the first and a product with x per further set bit, none of
    them with 1.  Each product with x keeps one factor small, which is what
    sparse polynomials want."""
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def _is_irreducible(m, p):
    """Rabin's test of the monic m of degree k >= 2: X^{p^k} = X mod m, and
    gcd(X^{p^{k/l}} - X, m) = 1 for each prime l dividing k."""
    k, x = len(m) - 1, [0, 1]

    def xpow(e):  # X^e mod m
        return _power(lambda u, v: _pmod(_pmul(u, v, p), m, p), x, e)
    if xpow(p ** k) != x:
        return False
    for ell, _ in factorize(k):
        diff = xpow(p ** (k // ell)) + [0, 0]
        diff[1] -= 1
        if len(_pgcd([c % p for c in diff], m, p)[0]) != 1:
            return False
    return True


def _term_sum(add, mul, pow_, sums, powers):
    """The value of each coded term list in sums, the sum of its terms
    c * prod x_i^d, written (c, ((i, d), ...)), one operation at a time.
    powers holds each x_i^d under (i, d), starting from the values under
    (i, 1), and grows, so sums at one point share it."""
    out = []
    for terms in sums:
        acc = 0
        for c, mono in terms:
            for key in mono:
                v = powers.get(key)
                if v is None:
                    v = powers[key] = pow_(powers[key[0], 1], key[1])
                c = mul(c, v)
            acc = add(acc, c)
        out.append(acc)
    return out


def _power_product(mul, pow_, inv, values, products):
    """For each tuple of (k, e) pairs in products, prod values[k]^e, one
    operation at a time; values[k] is nonzero where e < 0."""
    out = []
    for pairs in products:
        acc = 1
        for k, e in pairs:
            v = values[k]
            acc = mul(acc, pow_(v if e > 0 else inv(v), abs(e)))
        out.append(acc)
    return out


def _taylor_shift(add, mul, u, s):
    """u(X + s) for a polynomial u as a code list, low degree first: n
    passes of synthetic division by X - s, the pass for degree i leaving
    its coefficient final, n(n + 1)/2 products (the classical method; see
    von zur Gathen and Gerhard, ISSAC 1997)."""
    u, n = list(u), len(u) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            u[j] = add(u[j], mul(s, u[j + 1]))
    return u


_OPS = frozenset(("add", "sub", "neg", "mul", "inv", "pow", "term_sum",
                  "power_product", "taylor_shift"))


class FqContext:
    """The field F_{p^k} with a fixed, reproducible modulus.

    An element is its integer code c_0 + c_1 p + ... + c_{k-1} p^{k-1}.  The
    operations on codes -- ``add``, ``sub``, ``neg``, ``mul``, ``inv`` (of a
    nonzero code) and ``pow`` (e >= 0) -- and the whole-sum kernels
    ``term_sum(sums, powers)``, ``power_product(values, products)`` and
    ``taylor_shift(u, s)`` (as ``_term_sum``, ``_power_product`` and
    ``_taylor_shift``) are installed on first use, so a context that is never
    computed in builds nothing.  Also serves as a coefficient domain for
    ratfunc (attributes ``char``, ``zero``, ``one``, ``coerce``).
    """

    def __init__(self, p: int, k: int, modulus):
        self.p = self.char = p
        self.k = k
        self.q = p ** k
        # modulus: low-degree coefficients m_0..m_{k-1} of the monic modulus
        self.modulus = tuple(modulus)
        self.zero = FqElement(self, 0)
        self.one = FqElement(self, 1)

    def __getattr__(self, name):
        """Install all code operations when the first one is looked up: the
        closures of ``_operations``, and the whole-sum kernels over them
        where the field has none of its own."""
        if name not in _OPS:
            raise AttributeError(name)
        ops = self._operations()
        add, mul, pow_ = ops["add"], ops["mul"], ops["pow"]
        self.__dict__.update(dict(
            term_sum=partial(_term_sum, add, mul, pow_),
            power_product=partial(_power_product, mul, pow_, ops["inv"]),
            taylor_shift=partial(_taylor_shift, add, mul)), **ops)
        return self.__dict__[name]

    def _operations(self):
        """Int arithmetic mod p for k = 1, with kernels that compute in
        plain ints and reduce once per result; log, antilog and Zech
        lookups for q <= TABLE_CAP; polynomial products, digit-wise sums
        and extended-Euclid inverses above it."""
        p, q = self.p, self.q
        if self.k == 1:
            def term_sum(sums, powers):
                out = []
                for terms in sums:
                    acc = 0
                    for c, mono in terms:
                        for key in mono:
                            try:
                                c *= powers[key]
                            except KeyError:
                                c *= powers.setdefault(key, pow(
                                    powers[key[0], 1], key[1], p))
                        acc += c
                    out.append(acc % p)
                return out

            def power_product(values, products):
                out = []
                for pairs in products:
                    acc = 1
                    for k, e in pairs:
                        acc *= pow(values[k], e, p)
                    out.append(acc % p)
                return out

            def taylor_shift(u, s):  # over Z, then one reduction
                u, n = list(u), len(u) - 1
                for i in range(n):
                    for j in range(n - 1, i - 1, -1):
                        u[j] += s * u[j + 1]
                return [x % p for x in u]
            return dict(add=lambda a, b: (a + b) % p,
                        sub=lambda a, b: (a - b) % p, neg=lambda a: -a % p,
                        mul=lambda a, b: a * b % p,
                        inv=lambda a: pow(a, -1, p),
                        pow=lambda a, e: pow(a, e, p), term_sum=term_sum,
                        power_product=power_product,
                        taylor_shift=taylor_shift)
        mul, digitwise = self._poly_mul, self._digitwise
        if q > TABLE_CAP:
            k, m = self.k, list(self.modulus) + [1]

            def inv(a):  # s with s a = 1 mod m
                return _code(_pgcd(_digits(a, p, k), m, p)[1], p)
            return dict(add=lambda a, b: digitwise(a, b, 1),
                        sub=lambda a, b: digitwise(a, b, -1),
                        neg=lambda a: digitwise(0, a, -1), mul=mul, inv=inv,
                        pow=lambda a, e: _power(mul, a, e) if e else 1)
        log, exp, zech = self._tables()
        n, half = q - 1, (q - 1) // 2 if p > 2 else 0  # -1 = g^half

        def add(a, b):  # g^i + g^j = g^i (1 + g^(j-i))
            if not (a and b):
                return a or b
            z = zech[log[b] - log[a]]
            return 0 if z is None else exp[log[a] + z]

        def neg(a):
            return exp[log[a] + half] if a else 0
        return dict(add=add, sub=lambda a, b: add(a, neg(b)), neg=neg,
                    mul=lambda a, b: exp[log[a] + log[b]] if a and b else 0,
                    inv=lambda a: exp[n - log[a]],
                    pow=lambda a, e: exp[log[a] * e % n] if a else int(not e))

    def _poly_mul(self, a, b):
        """The product of two codes as polynomials mod the modulus: the one
        definition of the product, which also fills the tables."""
        p, k = self.p, self.k
        return _code(_pmod(_pmul(_digits(a, p, k), _digits(b, p, k), p),
                           list(self.modulus) + [1], p), p)

    def _digitwise(self, a, b, sign):
        """The code of a + sign * b, digit by digit."""
        p, out, scale = self.p, 0, 1
        while a or b:
            (a, x), (b, y) = divmod(a, p), divmod(b, p)
            out += (x + sign * y) % p * scale
            scale *= p
        return out

    def _tables(self):
        """For the least primitive code g: log, antilog doubled (a sum of
        two logs indexes it unreduced) and Zech logs, zech[d] = log(1 + g^d),
        None where 1 + g^d = 0."""
        q, mul = self.q, self._poly_mul
        n = q - 1
        g = next(c for c in range(2, q) if all(
            _power(mul, c, n // r) != 1 for r, _ in factorize(n)))
        exp = [1]
        while len(exp) < n:
            exp.append(mul(exp[-1], g))
        log = [None] * q
        for i, x in enumerate(exp):
            log[x] = i
        return log, exp + exp, [log[self._digitwise(x, 1, 1)] for x in exp]

    def element(self, coeffs) -> "FqElement":
        return FqElement(self, _code(list(coeffs)[: self.k], self.p))

    def from_int(self, n: int) -> "FqElement":
        return FqElement(self, n % self.p)

    def coerce(self, v) -> "FqElement":
        if isinstance(v, FqElement):
            if v.ctx is self:
                return v
            if v.ctx.p == self.p and (v.ctx.k == 1
                                      or v.ctx.modulus == self.modulus):
                return FqElement(self, v.code)  # F_p keeps its codes
            raise ValueError("cannot coerce element from %r" % (v.ctx,))
        if isinstance(v, int):
            return self.from_int(v)
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes mod %d" % self.p)
            return self.from_int(v.numerator * pow(den, -1, self.p))
        raise TypeError("cannot coerce %r" % (v,))

    def elements(self):
        """All q elements, ordered by code."""
        return (FqElement(self, c) for c in range(self.q))

    def gen(self) -> "FqElement":
        """The class of X (a root of the modulus); for k=1 this is 0."""
        return FqElement(self, self.p if self.k > 1 else 0)

    def __repr__(self):
        return "FqContext(p=%d, k=%d)" % (self.p, self.k)


def common_field(a: FqContext, b: FqContext) -> FqContext:
    """The context that holds the elements of both: a when b is the same
    field or its prime field, b when a is the prime field of b.  F_p keeps
    its codes in every extension, so codes carry over unchanged.  Any other
    pair (two characteristics, two extensions) raises ValueError."""
    if b is a or b.p == a.p and (b.k == 1 or b.modulus == a.modulus):
        return a
    if b.p == a.p and a.k == 1:
        return b
    raise ValueError("mixed field contexts")


class FqElement:
    """An element of a context, held as its integer code."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FqContext, code: int):
        self.ctx = ctx
        self.code = code

    # -- ring structure -------------------------------------------------

    def _pair(self, other):
        """(context, code of self, code of other) in a common context, or
        None.  FqElement is tested first: Fraction is an ABC, so its
        isinstance test is slow."""
        ctx = self.ctx
        if isinstance(other, FqElement):
            o = other.ctx
            return (ctx if o is ctx else common_field(ctx, o)), \
                self.code, other.code
        if isinstance(other, int):
            return ctx, self.code, other % ctx.p
        if isinstance(other, Fraction):
            return ctx, self.code, ctx.coerce(other).code
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        ctx, a, b = pair
        return FqElement(ctx, ctx.add(a, b))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        ctx, a, b = pair
        return FqElement(ctx, ctx.sub(a, b))

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return FqElement(self.ctx, self.ctx.neg(self.code))

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        ctx, a, b = pair
        return FqElement(ctx, ctx.mul(a, b))

    __rmul__ = __mul__

    def inverse(self) -> "FqElement":
        if not self.code:
            raise ZeroElement("inverse of zero")
        return FqElement(self.ctx, self.ctx.inv(self.code))

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        ctx, a, b = pair
        if not b:
            raise ZeroElement("inverse of zero")
        return FqElement(ctx, ctx.mul(a, ctx.inv(b)))

    def __rtruediv__(self, other):
        return self.ctx.coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FqElement(self.ctx, self.ctx.pow(self.code, e))

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.code

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == other % self.ctx.p
        return (isinstance(other, FqElement) and self.code == other.code
                and self.ctx.p == other.ctx.p
                and self.ctx.modulus == other.ctx.modulus)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.modulus, self.code))

    def encode(self) -> int:
        """The code sum c_i p^i (the deterministic element order)."""
        return self.code

    def __repr__(self):
        ctx = self.ctx
        if ctx.k == 1:
            return "Fq(%d; %d)" % (ctx.p, self.code)
        return "Fq(%d^%d; %s)" % (ctx.p, ctx.k,
                                  _digits(self.code, ctx.p, ctx.k))


@lru_cache(maxsize=None)
def fq_context(p: int, k: int) -> FqContext:
    """Context for F_{p^k} with the lexicographically smallest irreducible modulus.

    Lexicographic order compares the coefficient word (c_{k-1}, ..., c_0) of
    X^k + c_{k-1}X^{k-1} + ... + c_0.
    """
    if not is_prime(p):
        raise NotPrime("%d is not prime" % p)
    if not 1 <= k <= K_CAP:
        raise DegreeTooLarge("extension degree %d exceeds cap %d" % (k, K_CAP))
    if k == 1:
        return FqContext(p, 1, (0,))
    # Codes ascend in that lexicographic order, and the first p are the
    # binomials X^k + c.  One of them is irreducible only when every prime
    # dividing k divides p - 1, and p = 1 mod 4 if 4 | k (Lidl and
    # Niederreiter, Finite Fields, Thm 3.75; a paraphrase): otherwise
    # Rabin's test skips all p.
    binomials = all((p - 1) % r == 0 for r, _ in factorize(k)) \
        and (k % 4 or p % 4 == 1)
    for idx in range(0 if binomials else p, p ** k):
        low = _digits(idx, p, k)
        if _is_irreducible(low + [1], p):
            return FqContext(p, k, low)
    raise RuntimeError("no irreducible polynomial found (unreachable)")

