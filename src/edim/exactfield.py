"""Exact arithmetic for Q and for the finite fields F_q = F_{p^k}.

Rational numbers are stdlib ``fractions.Fraction`` (re-exported as
``Rational``).  Finite fields are modelled as F_p[X]/(m(X)) where m is the
lexicographically smallest monic irreducible of degree k, so serialized
elements are reproducible across runs.  Prime fields (k = 1) use the same
element interface with modulus X.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DegreeTooLarge, NotPrime, TooLarge, ZeroElement

Rational = Fraction

K_CAP = 12
FACTOR_CAP = 10 ** 6  # the largest trial divisor: every n <= 10^12 factors


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


def _order_dividing(n, is_one):
    """The order dividing n of an element x, with is_one(e) for x^e = 1."""
    for p, _ in factorize(n):
        while n % p == 0 and is_one(n // p):
            n //= p
    return n


def order_mod(a, m):
    """The multiplicative order of a modulo m, for a prime to m."""
    phi = 1
    for p, k in factorize(m):
        phi *= (p - 1) * p ** (k - 1)
    return _order_dividing(phi, lambda e: pow(a, e, m) == 1 % m)


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


def _psub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _pdivmod(a, b, p):
    """Quotient and remainder of a by b over F_p (b nonzero)."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    quo = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = (a[-1] * inv) % p
        d = len(a) - 1 - db
        if c:
            quo[d] = c
            for i in range(db + 1):
                a[d + i] = (a[d + i] - c * b[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return _trim(quo), _trim(a)


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


def _ppowmod(a, e, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _irreducible_trial(m, p):
    """Trial division against every monic divisor candidate of degree <= k/2."""
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for idx in range(p ** d):
            cand = []
            v = idx
            for _ in range(d):
                cand.append(v % p)
                v //= p
            cand.append(1)
            if not _pmod(m, cand, p):
                return False
    return True


def _irreducible_fast(m, p):
    """Rabin test: X^{p^k} = X mod m and gcd(X^{p^{k/l}} - X, m) = 1."""
    k = len(m) - 1
    x = [0, 1]
    if _pmod(x, m, p) != _ppowmod(x, p ** k, m, p):
        return False
    ell = 2
    kk = k
    primes = set()
    while kk > 1:
        while kk % ell == 0:
            primes.add(ell)
            kk //= ell
        ell += 1
    for ell in sorted(primes):
        t = _ppowmod(x, p ** (k // ell), m, p)
        diff = list(t)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        _trim(diff)
        if len(_pgcd(diff, m, p)) != 1:
            return False
    return True


def _is_irreducible(m, p):
    k = len(m) - 1
    if k == 1:
        return True
    if p ** (k // 2) <= 4096:
        return _irreducible_trial(m, p)
    return _irreducible_fast(m, p)


class FqContext:
    """The field F_{p^k} with a fixed, reproducible modulus.

    Also serves as a coefficient domain for ratfunc (attributes ``char``,
    ``zero``, ``one``, ``coerce``).
    """

    def __init__(self, p: int, k: int, modulus):
        self.p = p
        self.k = k
        self.q = p ** k
        # modulus: low-degree coefficients m_0..m_{k-1} of the monic modulus
        self.modulus = tuple(modulus)
        self.zero = FqElement(self, (0,) * k)
        self.one = FqElement(self, (1,) + (0,) * (k - 1))
        self.char = p

    def element(self, coeffs) -> "FqElement":
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            coeffs = tuple(list(coeffs)[: self.k] + [0] * (self.k - len(coeffs)))
        return FqElement(self, coeffs)

    def from_int(self, n: int) -> "FqElement":
        return self.element((n % self.p,) + (0,) * (self.k - 1))

    def coerce(self, v) -> "FqElement":
        if isinstance(v, FqElement):
            if v.ctx is self:
                return v
            if v.ctx.p == self.p and v.ctx.k == 1:
                return self.from_int(v.coeffs[0])
            raise ValueError("cannot coerce element from %r" % (v.ctx,))
        if isinstance(v, int):
            return self.from_int(v)
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes mod %d" % self.p)
            return self.from_int(v.numerator * pow(den, self.p - 2, self.p))
        raise TypeError("cannot coerce %r" % (v,))

    def elements(self):
        """All q elements, ordered by integer encoding sum c_i p^i."""
        for idx in range(self.q):
            coeffs = []
            v = idx
            for _ in range(self.k):
                coeffs.append(v % self.p)
                v //= self.p
            yield FqElement(self, tuple(coeffs))

    def gen(self) -> "FqElement":
        """The class of X (a root of the modulus); for k=1 this is 0."""
        if self.k == 1:
            return self.zero
        return self.element((0, 1) + (0,) * (self.k - 2))

    def __repr__(self):
        return "FqContext(p=%d, k=%d)" % (self.p, self.k)


class FqElement:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FqContext, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    # -- ring structure -------------------------------------------------

    def _pair(self, other):
        """Bring self and other into a common context, or None.  FqElement
        is tested first: Fraction is an ABC, so its isinstance test is slow."""
        if isinstance(other, FqElement):
            if other.ctx is self.ctx or (other.ctx.p == self.ctx.p
                                         and other.ctx.modulus == self.ctx.modulus):
                return self, other
            if other.ctx.p == self.ctx.p:
                # prime-field elements promote into any extension
                if other.ctx.k == 1:
                    return self, self.ctx.coerce(other)
                if self.ctx.k == 1:
                    return other.ctx.coerce(self), other
            raise ValueError("mixed field contexts")
        if isinstance(other, int):
            return self, self.ctx.from_int(other)
        if isinstance(other, Fraction):
            return self, self.ctx.coerce(other)
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        p = a.ctx.p
        return FqElement(a.ctx, tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        p = a.ctx.p
        return FqElement(a.ctx, tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        p = self.ctx.p
        return FqElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        ctx = a.ctx
        p, k = ctx.p, ctx.k
        if k == 1:
            return FqElement(ctx, ((a.coeffs[0] * b.coeffs[0]) % p,))
        prod = _pmul(list(a.coeffs), list(b.coeffs), p)
        m = list(ctx.modulus) + [1]
        prod = _pmod(prod, m, p)
        prod += [0] * (k - len(prod))
        return FqElement(ctx, tuple(prod))

    __rmul__ = __mul__

    def inverse(self) -> "FqElement":
        if self.is_zero():
            raise ZeroElement("inverse of zero")
        ctx = self.ctx
        p, k = ctx.p, ctx.k
        if k == 1:
            return FqElement(ctx, (pow(self.coeffs[0], p - 2, p),))
        # extended Euclid in F_p[X]: s*self = gcd (mod modulus)
        m = list(ctx.modulus) + [1]
        r0, r1 = m, _trim(list(self.coeffs))
        s0, s1 = [], [1]
        while r1:
            quo, rem = _pdivmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, _psub(s0, _pmul(quo, s1, p), p)
        # r0 = gcd, a nonzero constant
        c = pow(r0[0], p - 2, p)
        s0 = [(x * c) % p for x in _pmod(s0, m, p)]
        s0 += [0] * (k - len(s0))
        return FqElement(ctx, tuple(s0[:k]))

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.ctx.coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ctx.from_int(other)
        return (isinstance(other, FqElement) and self.ctx.modulus == other.ctx.modulus
                and self.ctx.p == other.ctx.p and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.modulus, self.coeffs))

    def encode(self) -> int:
        """Integer encoding sum c_i p^i (the deterministic element order)."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.ctx.p + c
        return v

    def __repr__(self):
        if self.ctx.k == 1:
            return "Fq(%d; %d)" % (self.ctx.p, self.coeffs[0])
        return "Fq(%d^%d; %s)" % (self.ctx.p, self.ctx.k, list(self.coeffs))


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
    for idx in range(p ** k):
        # idx digits read as (c_{k-1}, ..., c_0), most significant first
        word = []
        v = idx
        for _ in range(k):
            word.append(v % p)
            v //= p
        word.reverse()  # now (c_{k-1}, ..., c_0)
        low = list(reversed(word))  # (c_0, ..., c_{k-1})
        m = low + [1]
        if _is_irreducible(m, p):
            return FqContext(p, k, tuple(low))
    raise RuntimeError("no irreducible polynomial found (unreachable)")


def multiplicative_order(x: FqElement) -> int:
    """Smallest d >= 1 with x^d = 1; divides q - 1."""
    if x.is_zero():
        raise ZeroElement("order of zero is undefined")
    return _order_dividing(x.ctx.q - 1, lambda e: x ** e == x.ctx.one)


def has_zeta(ctx: FqContext, n: int) -> bool:
    """True iff F_q contains a primitive n-th root of unity (char-coprime convention)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n % ctx.p == 0:
        return False
    return (ctx.q - 1) % n == 0
